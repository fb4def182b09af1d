(** What one workload run measures, shared by the campaign and
    analysis workloads. *)

open Perfbench

type measured = {
  setup : Setup.parts list;  (** one entry per cold set-up sample *)
  walls : float list;  (** wall time of each timed repetition, s *)
  trials : int;  (** trials one repetition classifies or analyses *)
  attempted : int;  (** operations attempted over the timed repetitions *)
  failed : int;  (** of which lost to infrastructure errors *)
  counts : Campaign.counts option;  (** campaign workloads' counts *)
  layers : Layers.values;  (** per-layer metrics (traced runs) *)
  notes : string list;  (** human-readable lines of the traced run *)
}

(** Run [f] for [seconds]: at least [min_reps] repetitions, and no
    further one the last repetition's length says would end past the
    deadline, so a run's length stays close to [seconds]. *)
let repeat ~(seconds : float) ~(min_reps : int) (f : unit -> 'a) : 'a list =
  let t0 = Clock.now () in
  let rec go n last acc =
    let now = Clock.now () in
    if n >= min_reps && now -. t0 +. last > seconds then List.rev acc
    else
      let v = f () in
      go (n + 1) (Clock.now () -. now) (v :: acc)
  in
  go 0 0.0 []

(** [Gc.quick_stat] deltas over [f]. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta (f : unit -> 'a) : 'a * gc =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let gc_line (what : string) (g : gc) : string =
  Printf.sprintf
    "gc %s minor_words=%.0f promoted_words=%.0f minor_collections=%d \
     major_collections=%d"
    what g.minor_words g.promoted_words g.minor_collections g.major_collections

(** Remove a directory tree the benchmark created. *)
let rec remove_tree (path : string) : unit =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let rec tree_bytes (path : string) : int =
  match Sys.is_directory path with
  | exception Sys_error _ -> 0
  | true ->
      Array.fold_left
        (fun n f -> n + tree_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
