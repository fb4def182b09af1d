(** A small parameterized cache layered over the VM's flat memory:
    write-back, write-allocate, LRU within a set.  Fault-free it is
    semantically transparent (reads see what flat memory would return;
    {!flush} restores the exact memory image), so the VM only simulates
    it when a cache fault is armed.  Tag/valid/dirty metadata and data
    words are separately injectable via {!corrupt}. *)

type geometry = { sets : int; ways : int; line_words : int }

val default_geometry : geometry
(** 16 sets x 2 ways x 4 words per line = 512 words of capacity. *)

val direct_mapped : sets:int -> line_words:int -> geometry

val validate_geometry : geometry -> unit
(** @raise Invalid_argument unless all fields are positive. *)

val lines : geometry -> int
(** Total line count, [sets * ways]. *)

val geometry_to_string : geometry -> string
(** ["SETSxWAYSxWORDS"], parseable by {!geometry_of_string}. *)

val geometry_of_string : string -> (geometry, string) result

val tag_bits : geometry -> mem_words:int -> int
(** Injectable width of the Tag field: enough bits to rename a line to
    any other line of a [mem_words]-word memory within its set. *)

type field = Tag | Valid | Dirty | Word of int

type loc = { set : int; way : int; field : field }

val field_to_string : field -> string
val loc_to_string : loc -> string

type t

val create : geometry -> t
(** All lines invalid; raises [Invalid_argument] on a degenerate
    geometry. *)

val geometry : t -> geometry

val read : t -> Mem.t -> int -> int64
(** [read c mem a] returns word [a] through the cache, filling (and
    possibly evicting with write-back) as needed.  [a] must be a valid
    index into [mem]. *)

val write : t -> Mem.t -> int -> int64 -> unit
(** Write-allocate: misses fill the line first, then the word is
    updated in the cache and the line marked dirty. *)

val flush : t -> Mem.t -> unit
(** Write every dirty line back (in set/way order) and mark it clean.
    Out-of-range writebacks — reachable only through a corrupted tag —
    are dropped. *)

val invalidate : t -> unit
(** Drop every line without writing back (rollback-recovery semantics:
    buffered stores die with the rolled-back state). *)

val corrupt : t -> loc -> f:(int64 -> int64) -> unit
(** Apply a corruption function to one metadata field or data word.
    Boolean fields keep only bit 0 of the result; tags are clamped
    non-negative. *)
