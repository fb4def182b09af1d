(** Framed csexp transport over a stream socket, fail-stop: each
    message travels as [(f <checksum> <payload>)] with an FNV-1a
    checksum of the payload.  The socket is reliable and ordered, so a
    frame that fails its checksum or does not parse means a broken
    peer: {!recv} raises {!Corrupt}, and the scheduler kills that
    worker and steals its lease.  Blocking receives carry a wall-clock
    deadline and raise {!Timeout} instead of hanging. *)

type conn

exception Closed
(** The peer hung up (EOF, EPIPE, ECONNRESET). *)

exception Timeout of { what : string; after_s : float }
(** A deadline expired with no complete frame. *)

exception Corrupt of string
(** The peer is broken: unframed bytes, a checksum mismatch, a payload
    that is not a csexp, or more than 16 MiB without a whole frame.
    The connection is unusable; close it. *)

val of_fd : Unix.file_descr -> conn
val pair : unit -> conn * conn
(** A connected [socketpair], one end each (for forked workers). *)

val send : conn -> Csexp.t -> unit
(** Frame and write one message.  @raise Closed on a dead peer. *)

val recv : conn -> timeout_s:float -> Csexp.t
(** The next message.  @raise Timeout when the deadline passes first;
    @raise Corrupt on a broken frame. *)

val try_recv : conn -> Csexp.t option
(** Non-blocking [recv]: [None] when no complete frame is available. *)

val fd : conn -> Unix.file_descr
(** The underlying descriptor (for [select] in an event loop). *)

val close : conn -> unit

val checksum : string -> int64
(** FNV-1a 64 of a byte string (exposed for the cache's integrity
    check). *)
