(** Sharded append-only journals: one campaign log split over a list
    of independent files, each with the campaign header and its own
    torn-tail healing.  The caller routes records to shards (e.g.
    [batch_index mod shards]); the merged view on resume is
    order-insensitive because records are keyed by trial index and the
    reader ({!Ledger}) keeps the first record per index.  A one-element
    path list is the in-process executor's single-file journal. *)

type t

exception Header_mismatch of { shard : string; found : Csexp.t }
(** A non-empty shard does not open with the expected campaign header:
    the journal belongs to a different campaign. *)

val shard_paths : dir:string -> shards:int -> string list
(** The shard file paths a [(dir, shards)] layout uses. *)

val create : string list -> header:Csexp.t -> t
(** Create/truncate every file (and missing parent directories),
    writing [header] to each. *)

val open_resume : string list -> header:Csexp.t -> t * Csexp.t list
(** Reopen for appending: heal each file's torn tail, validate each
    header, and return the surviving non-header records of all files
    (path order, then log order).  Missing or empty files are created
    with the header.  Nothing is opened or truncated unless every
    header validates.
    @raise Header_mismatch on a foreign file. *)

val append : t -> shard:int -> Csexp.t -> unit
(** Buffer one record on shard [shard mod shards]. *)

val sync : t -> shard:int -> unit
(** Flush + fsync one shard. *)

val close : t -> unit
(** Flush, fsync and close every shard.  Idempotent. *)
