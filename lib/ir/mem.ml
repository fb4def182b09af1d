(** VM memory: one unboxed 64-bit word per address (see mem.mli). *)

module BA1 = Bigarray.Array1

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

let create (n : int) : t =
  let m = BA1.create Bigarray.int64 Bigarray.c_layout n in
  BA1.fill m 0L;
  m

let length (m : t) : int = BA1.dim m

let copy (m : t) : t =
  let c = BA1.create Bigarray.int64 Bigarray.c_layout (BA1.dim m) in
  BA1.blit m c;
  c

let init_into (prog : Prog.t) (m : t) : unit =
  BA1.fill m 0L;
  List.iter (fun (a, v) -> m.{a} <- v) prog.Prog.init_mem

let image (prog : Prog.t) : t =
  let m = BA1.create Bigarray.int64 Bigarray.c_layout prog.Prog.mem_size in
  init_into prog m;
  m
