(** Append-only on-disk journal of csexp records, fsync'd in batches.
    A record is one csexp value followed by a newline (the newline is
    cosmetic; csexp is self-delimiting).  Reading tolerates a torn
    tail: [load] stops at the last complete record. *)

type writer

val load : string -> Csexp.t list * int
(** All complete records plus the byte offset of the valid prefix's
    end.  A missing file loads as [([], 0)]. *)

val create : string -> writer
(** Truncate/create the file and open it for appending. *)

val open_append : ?truncate_at:int -> string -> writer
(** Open for appending; [truncate_at] first drops a torn tail (pass
    the offset [load] returned). *)

val write : writer -> Csexp.t -> unit
(** Buffer one record (durable only after [sync]). *)

val sync : writer -> unit
(** Write the buffered records and fsync. *)

val close : writer -> unit
(** [sync] then close the descriptor.  Idempotent. *)
