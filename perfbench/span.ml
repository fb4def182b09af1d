(** In-memory spans recorded around calls into the program's layers,
    and the per-layer self times derived from them.

    A span is [name], its interval, the span that caused it ([parent];
    [-1] for a root) and the domain it ran on.  Spans stay in memory
    until the run ends; recording takes one mutex acquisition, safe
    from any domain. *)

type t = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  t0 : float;
  t1 : float;
}

let root = -1

type recorder = {
  lock : Mutex.t;
  next : int Atomic.t;
  mutable spans : t list;
}

let recorder () : recorder =
  { lock = Mutex.create (); next = Atomic.make 0; spans = [] }

let add (r : recorder) (s : t) : unit =
  Mutex.lock r.lock;
  r.spans <- s :: r.spans;
  Mutex.unlock r.lock

(** [with_span r ~parent name f] runs [f id], where [id] names the new
    span for the children [f] records, and records the span even when
    [f] raises. *)
let with_span (r : recorder) ~(parent : int) (name : string) (f : int -> 'a) :
    'a =
  let id = Atomic.fetch_and_add r.next 1 in
  let domain = (Domain.self () :> int) in
  let t0 = Clock.now () in
  let finish () = add r { id; parent; name; domain; t0; t1 = Clock.now () } in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans (r : recorder) : t list = List.rev r.spans
let duration (s : t) : float = s.t1 -. s.t0

(** Length of the union of intervals, each clipped to [lo, hi]:
    children that overlap one another (parallel domains) count once. *)
let covered ~(lo : float) ~(hi : float) (ivs : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span: its duration minus the part of its
    interval that its direct children cover. *)
let self_times (spans : t list) : (t * float) list =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> root then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(** Self time summed per span name, in first-seen order. *)
let self_by_name (spans : t list) : (string * float) list =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
