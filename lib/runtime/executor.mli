(** Resilient batch executor for campaigns of independent, deterministic
    trials: domain-pool parallelism, an append-only csexp journal with
    resume, bounded retry with exponential backoff (infrastructure
    failures become {!Infra_error}, never aborts), and early stopping
    evaluated at deterministic batch boundaries.

    Determinism contract: a trial depends only on its index, batches
    are fixed contiguous index ranges, and outcomes accumulate in index
    order — so 1 worker, N workers, and kill-then-resume all yield the
    same outcome sequence. *)

type 'a outcome =
  | Done of 'a  (** the trial ran and was classified by the experiment *)
  | Infra_error of string
      (** the trial kept raising after bounded retries; reported
          separately so infrastructure faults cannot masquerade as
          experiment outcomes *)

type progress = {
  completed : int;
  planned : int;
  elapsed_s : float;
  eta_s : float;  (** from this run's own throughput; 0 when unknown *)
}

type config = {
  jobs : int;  (** worker domains; 1 = run inline *)
  batch : int;  (** journal/fsync/early-stop granularity *)
  journal : string option;
  resume : bool;  (** load the journal and skip completed trials *)
  max_retries : int;
  retry_backoff_s : float;  (** base of the exponential backoff *)
  retry_jitter : float;
      (** fraction of each backoff step randomized, deterministic per
          (trial, attempt); 0 restores the lockstep [base * 2^k].
          Timing only — outcomes and counts are unaffected. *)
  on_progress : (progress -> unit) option;
  metrics : Obs.t option;
      (** when set, the engine records its phases ([executor/resume],
          [executor/trials], [executor/journal]), trial/retry/infra
          counters, and a batch-size histogram there *)
}

val default_config : config
(** jobs 1, batch 64, no journal, 2 retries, 50 ms backoff base with
    0.5 jitter. *)

val backoff_s : config -> int -> int -> float
(** [backoff_s cfg idx k]: the jittered exponential sleep before
    re-attempt [k] of trial [idx] — exposed so other schedulers (the
    campaign server's lease re-assignment) share the same policy. *)

type 'a spec = {
  tag : string;
      (** campaign identity; a resumed journal must carry the same tag *)
  total : int;
  run_trial : int -> 'a;
      (** deterministic in the index; exceptions are retried and then
          classified as {!Infra_error} *)
  encode : 'a -> string;
  decode : string -> 'a option;
  should_stop : ('a outcome array -> int -> bool) option;
      (** evaluated at batch boundaries on the completed prefix *)
}

type 'a report = {
  outcomes : 'a outcome array;  (** the completed prefix, in index order *)
  planned : int;
  completed : int;
  infra_errors : int;
  stopped_early : bool;
  resumed : int;  (** trials taken from the journal, not re-run *)
  wall_s : float;
}

val boundary_stop : 'a spec -> 'a outcome option array -> (int -> bool) option
(** The spec's [should_stop] as a predicate on batch boundaries over an
    outcome table indexed by trial: asked about boundary [n], it
    evaluates [should_stop] on the completed prefix [0..n-1].  This
    engine and the campaign server's adapters share it.
    @raise Invalid_argument if an outcome below [n] is missing. *)

val run : ?cfg:config -> 'a spec -> 'a report
(** @raise Failure when resuming against a journal whose tag or plan
    size does not match [spec] (a different campaign's journal). *)

(** {2 Journal record format}

    Exposed so other engines over the same trial model — the campaign
    server's sharded journals, [ft_dev journal] — read and write
    records interchangeable with this executor's, which is what lets a
    server-mode campaign resume a single-process journal and vice
    versa. *)

val header_record : 'a spec -> Csexp.t
(** [(magic version tag total)] — the first record of every journal. *)

val trial_record : ('a -> string) -> int -> 'a outcome -> Csexp.t
(** [(t idx ok payload)] or [(t idx err message)]. *)

val parse_trial : (string -> 'a option) -> Csexp.t -> (int * 'a outcome) option
(** Inverse of {!trial_record}; [None] on any other record shape. *)

val attempt : config -> 'a spec -> int -> 'a outcome
(** One trial under the bounded-jittered-retry policy; exceptions never
    escape (they classify as {!Infra_error}).  The unit of work a
    campaign server's worker runs per leased index. *)
