(** The trial-outcome ledger: the one implementation of the campaign
    contract, shared by the in-process executor ({!Executor.run}) and
    the campaign server's scheduler.

    A ledger owns a campaign's typed outcome table, filled
    first-write-wins by trial index; its journal (one file for the
    executor, one file per shard for the server — the same record
    format either way), opened, healed, validated and replayed through
    {!Shard}; the completed prefix, advanced incrementally, with the
    early-stop predicate asked at fixed batch boundaries in order; and
    the progress figure and final report.  Trials depend only on their
    index and every writer — a resumed journal, a domain, a forked or
    remote worker — goes through the same first-write-wins table, so
    every schedule yields the same outcome sequence. *)

type 'a outcome =
  | Done of 'a  (** the trial ran and was classified by the experiment *)
  | Infra_error of string
      (** the trial kept raising after bounded retries; reported
          separately so infrastructure faults cannot masquerade as
          experiment outcomes *)

type progress = {
  completed : int;  (** trials with an outcome, resumed ones included *)
  planned : int;
  elapsed_s : float;
  eta_s : float;  (** from this run's own throughput; 0 when unknown *)
}

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
      (** [should_stop outcomes n]: asked at batch boundaries, in
          order, on the completed prefix [0..n-1]; [true] stops the
          campaign at [n] *)
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

(** {2 Journal records}

    Single-file and sharded journals hold the same records, so a
    server-mode campaign and an in-process one can resume each other's
    trials and [ft_dev journal] reads both. *)

val header_record : 'a spec -> Csexp.t
(** [(magic version tag total)] — the first record of every journal
    file. *)

val parse_header : Csexp.t -> (string * string * int) option
(** Inverse of {!header_record}: [Some (version, tag, total)]; [None]
    on any other record shape. *)

val trial_record : ('a -> string) -> int -> 'a outcome -> Csexp.t
(** [(t idx ok payload)] or [(t idx err message)]. *)

val parse_trial : (string -> 'a option) -> Csexp.t -> (int * 'a outcome) option
(** Inverse of {!trial_record}; [None] on any other record shape. *)

(** {2 The ledger} *)

type 'a t

val create :
  ?journal:string list -> ?resume:bool -> batch:int -> 'a spec -> 'a t
(** An empty ledger over fixed batches [[k*batch, (k+1)*batch)].
    [journal] lists the journal's files: [[path]] for a single file,
    {!Shard.shard_paths} for a sharded directory; a trial of batch [b]
    is journaled to file [b mod length].  Nothing touches the disk
    until {!open_journal}.
    @raise Invalid_argument on a negative [total]. *)

val open_journal : 'a t -> unit
(** Create the journal, or — with [resume] — heal its torn tails,
    validate its headers and replay its records (first write wins per
    index; out-of-range and undecodable records are ignored).  Then
    advance the prefix and the early-stop check over what was
    replayed.  A no-op journal-wise when [journal] is empty.
    @raise Failure when the journal belongs to a different campaign
    (tag or plan size mismatch). *)

val next_batch : 'a t -> int option
(** The batch holding the first missing trial; [None] once the
    campaign stopped early or every trial has an outcome. *)

val pending : 'a t -> int -> int array
(** The indices of batch [b] that have no outcome yet. *)

val fill : 'a t -> int -> 'a outcome -> bool
(** Record trial [i]'s outcome and buffer its journal record.  First
    write wins: [false] (and nothing recorded) when [i] already has an
    outcome or is out of range. *)

val close_batch : 'a t -> int -> unit
(** Batch [b] is done: fsync its journal file, then advance the prefix
    and ask the early-stop predicate about every boundary it crossed. *)

val progress : 'a t -> progress

val report : 'a t -> 'a report
(** Flush, fsync and close the journal, and report the completed
    prefix: up to the early-stop boundary, else up to the first missing
    trial. *)

(** {2 The type-erased view}

    What the campaign server's scheduler holds per tenant: it routes
    worker records into the ledger without knowing the outcome type,
    while the campaign's owner keeps the typed ledger for {!report}. *)

type erased = {
  total : int;
  batch : int;
  open_journal : unit -> unit;
  filled : int -> bool;
  accept : Csexp.t -> bool;
      (** decode a worker's trial record and {!fill} it, journaling the
          record verbatim; [false] when it does not decode or its index
          already has an outcome *)
  close_batch : int -> unit;
  recorded : unit -> int;  (** trials with an outcome *)
  stopped : unit -> bool;  (** the early-stop predicate fired *)
  close : unit -> unit;  (** flush, fsync and close the journal; idempotent *)
}

val erase : 'a t -> erased
