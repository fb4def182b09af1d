(** VM memory: one unboxed 64-bit word per address.

    The single memory representation of the virtual machine — the
    interpreter's working memory, the compiled backend's trial arena,
    the cache model's backing store and [Machine.result]'s final image
    are all this type.  Words live in a [Bigarray], outside the OCaml
    heap, so a store writes 8 bytes in place: no boxed [int64] per
    store, no write barrier, and a program's memory never lands on the
    major heap.  The type is manifest so that [.{i}] accesses compile
    to plain loads and stores in every module that uses it. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n]: [n] zero words. *)

val length : t -> int

val copy : t -> t
(** A fresh memory with the same words. *)

val init_into : Prog.t -> t -> unit
(** [init_into prog m] makes [m] the program's initial memory: every
    word zero, then every [init_mem] write in list order, so a
    duplicated address keeps its last value.  [m] must be
    [prog.mem_size] words long.
    @raise Invalid_argument ["index out of bounds"] when an [init_mem]
    address is outside the memory. *)

val image : Prog.t -> t
(** A fresh memory holding the program's initial image (see
    {!init_into}, which raises the same way). *)
