(** Resilient batch executor for campaigns of independent, deterministic
    trials: domain-pool parallelism, an append-only csexp journal with
    resume, bounded retry with exponential backoff (infrastructure
    failures become {!Infra_error}, never aborts), and early stopping
    evaluated at deterministic batch boundaries.

    Determinism contract: a trial depends only on its index, batches
    are fixed contiguous index ranges, and outcomes accumulate
    first-write-wins in a {!Ledger} — so 1 worker, N workers, and
    kill-then-resume all yield the same outcome sequence. *)

(** {2 The trial model}

    Re-exported from {!Ledger}, which documents it and implements the
    contract over it. *)

type 'a outcome = 'a Ledger.outcome = Done of 'a | Infra_error of string

type progress = Ledger.progress = {
  completed : int;
  planned : int;
  elapsed_s : float;
  eta_s : float;
}

type 'a spec = 'a Ledger.spec = {
  tag : string;
  total : int;
  run_trial : int -> 'a;
  encode : 'a -> string;
  decode : string -> 'a option;
  should_stop : ('a outcome array -> int -> bool) option;
}

type 'a report = 'a Ledger.report = {
  outcomes : 'a outcome array;
  planned : int;
  completed : int;
  infra_errors : int;
  stopped_early : bool;
  resumed : int;
  wall_s : float;
}

(** {2 The engine} *)

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

val run : ?cfg:config -> 'a spec -> 'a report
(** @raise Failure when resuming against a journal whose tag or plan
    size does not match [spec] (a different campaign's journal). *)

val attempt : config -> 'a spec -> int -> 'a outcome
(** One trial under the bounded-jittered-retry policy; exceptions never
    escape (they classify as {!Infra_error}).  The unit of work a
    campaign server's worker runs per leased index. *)
