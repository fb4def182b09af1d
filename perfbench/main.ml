(** The benchmark: one workload per process, so each workload's peak
    RSS is its own.

    [main.exe --workload W --seed N --seconds S --trace 0|1 [--jobs J]]

    Prints the host block, human-readable metric lines, and as its last
    line one JSON object: the end-to-end metrics untraced ([--trace 0])
    or the per-layer metrics ([--trace 1]).  Any correctness mismatch
    exits 1.  [--workload all] runs every workload in its own process
    and checks that the campaign workloads' counts are byte-identical. *)

open Perfbench

let workloads =
  [ "campaign-serial"; "campaign-parallel"; "campaign-server"; "analysis-cg" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (campaign-serial|campaign-parallel|\
     campaign-server|analysis-cg|all) --seed N --seconds S --trace 0|1 \
     [--jobs J]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int option;
}

let parse_args () : args =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--jobs" :: j :: rest -> go { a with jobs = Some (int_of_string j) } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try
      go
        { workload = ""; seed = 42; seconds = 10.0; trace = false; jobs = None }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if not (a.workload = "all" || List.mem a.workload workloads) then usage ();
  if a.seed < 0 || a.seconds <= 0.0 then usage ();
  a

let number (x : float) : string = Printf.sprintf "%.17g" x

let json_line ~correct ~attempted ~failed (metrics : (string * float * string) list)
    =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (number v) u)
          metrics))

let summary_line name unit_ (xs : float list) : float =
  let s = Summary.of_list xs in
  Printf.printf
    "metric %s %s %s  (median of %d; q1 %.6g, q3 %.6g, min %.6g, max %.6g, \
     spread %.3f)\n"
    name (number s.Summary.median) unit_ s.Summary.n s.Summary.q1 s.Summary.q3
    s.Summary.min s.Summary.max (Summary.spread s);
  s.Summary.median

(* --- one workload in this process ---------------------------------------- *)

let measure (a : args) ~(jobs : int) ~(tmp : string) (gate : Gate.t) :
    Workload.measured =
  let seed = a.seed and seconds = a.seconds and traced = a.trace in
  match a.workload with
  | "analysis-cg" -> Analysis_load.run ~seed ~seconds ~traced ~tmp gate
  | "campaign-serial" ->
      Campaign_load.run ~mode:Serial ~seed ~seconds ~traced ~jobs ~tmp gate
  | "campaign-parallel" ->
      Campaign_load.run ~mode:Parallel ~seed ~seconds ~traced ~jobs ~tmp gate
  | _ -> Campaign_load.run ~mode:Server ~seed ~seconds ~traced ~jobs ~tmp gate

let end_to_end (m : Workload.measured) ~(rss : float) :
    (string * float * string) list =
  let setup_s = summary_line "setup_s" "s" (List.map Setup.total m.setup) in
  let trials_per_s =
    summary_line "trials_per_s" "1/s"
      (List.map (fun w -> Float.of_int m.trials /. w) m.walls)
  in
  let analysis_s = summary_line "analysis_s" "s" m.walls in
  Printf.printf "metric peak_rss_mb %s MB\n" (number rss);
  Printf.printf
    "metric infra_rate %s share  (%d of %d attempted lost to infrastructure \
     errors)\n"
    (number (Float.of_int m.failed /. Float.of_int (max 1 m.attempted)))
    m.failed m.attempted;
  [
    ("setup_s", setup_s, "s");
    ("trials_per_s", trials_per_s, "1/s");
    ("analysis_s", analysis_s, "s");
    ("peak_rss_mb", rss, "MB");
  ]

let per_layer (m : Workload.measured) : (string * float * string) list =
  List.iter print_endline m.notes;
  List.map
    (fun (l : Layers.metric) ->
      let v = Layers.get m.layers l.name in
      if Hashtbl.mem m.layers l.name then
        Printf.printf "layer %-30s %14s %-6s -> %s\n" l.name (number v) l.unit_
          l.moves;
      (l.name, v, l.unit_))
    Layers.table

let run_one (a : args) : int =
  let cores = Host.cores () in
  (* campaign-serial is jobs 1 by definition; --jobs sizes the others *)
  let jobs =
    if a.workload = "campaign-serial" then 1 else Option.value a.jobs ~default:cores
  in
  if jobs < 1 then usage ();
  let oversubscribed = jobs > cores in
  print_endline (Host.describe ());
  Printf.printf "workload %s seed=%d seconds=%g trace=%d jobs=%d%s\n%!"
    a.workload a.seed a.seconds (Bool.to_int a.trace) jobs
    (if oversubscribed then " OVERSUBSCRIBED (numbers not gated)" else "");
  let tmp = Filename.concat (Sys.getcwd ()) ".perfbench-tmp" in
  Workload.remove_tree tmp;
  Unix.mkdir tmp 0o755;
  let gate = Gate.create () in
  let m =
    Fun.protect
      ~finally:(fun () -> Workload.remove_tree tmp)
      (fun () -> measure a ~jobs ~tmp gate)
  in
  let rss = Host.peak_rss_mb () in
  Option.iter
    (fun (c : Campaign.counts) ->
      Printf.printf
        "counts %s  (success=%d failed=%d crashed=%d trials=%d infra=%d)\n"
        (Gate.counts_bytes c) c.success c.failed c.crashed c.trials c.infra)
    m.counts;
  let metrics = if a.trace then per_layer m else end_to_end m ~rss in
  List.iter
    (fun (n, v, _) ->
      Gate.check gate (Float.is_finite v) (n ^ " is not a finite number"))
    metrics;
  let correct = Gate.passed gate in
  List.iter (Printf.eprintf "CORRECTNESS FAILURE: %s\n") (Gate.failures gate);
  Printf.printf "gate %s (%d checks)\n"
    (if correct then "passed" else "FAILED")
    gate.checks;
  if oversubscribed then
    print_endline "oversubscribed run: no result line is written"
  else
    print_endline
      (json_line ~correct ~attempted:m.attempted ~failed:m.failed metrics);
  if correct then 0 else 1

(* --- every workload, each in its own process ----------------------------- *)

(** The rest of the first line of [lines] that starts with [prefix]. *)
let field (prefix : string) (lines : string list) : string option =
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.sub l n (String.length l - n))
      else None)
    lines

let run_workload (a : args) (w : string) : string list * bool =
  let argv =
    [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int a.seed ]
    @ [ "--seconds"; number a.seconds; "--trace"; (if a.trace then "1" else "0") ]
    @ match a.jobs with Some j -> [ "--jobs"; string_of_int j ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
  let rec read acc =
    match input_line ic with
    | l ->
        print_endline l;
        read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  (lines, Unix.close_process_in ic = Unix.WEXITED 0)

let run_all (a : args) : int =
  let outputs = List.map (fun w -> (w, run_workload a w)) workloads in
  let gate = Gate.create () in
  List.iter (fun (w, (_, ok)) -> Gate.check gate ok (w ^ " failed")) outputs;
  let counts =
    List.filter_map
      (fun (w, (lines, _)) -> Option.map (fun c -> (w, c)) (field "counts " lines))
      outputs
  in
  (match counts with
  | (w0, c0) :: rest ->
      List.iter
        (fun (w, c) ->
          Gate.check gate (String.equal c c0)
            (Printf.sprintf "%s counts %s differ from %s counts %s" w c w0 c0))
        rest
  | [] -> ());
  let tps w =
    Option.map
      (fun s -> float_of_string (List.hd (String.split_on_char ' ' s)))
      (field "metric trials_per_s " (fst (List.assoc w outputs)))
  in
  (match (tps "campaign-serial", tps "campaign-parallel") with
  | Some s, Some p ->
      let cores = Host.cores () in
      Printf.printf
        "derived parallel_efficiency %.4f = trials_per_s(campaign-parallel) / \
         (%d x trials_per_s(campaign-serial))\n"
        (p /. (Float.of_int cores *. s))
        cores
  | _ -> ());
  List.iter (Printf.eprintf "CORRECTNESS FAILURE: %s\n") (Gate.failures gate);
  Printf.printf "all workloads: gate %s\n"
    (if Gate.passed gate then "passed" else "FAILED");
  if Gate.passed gate then 0 else 1

let () =
  let a = parse_args () in
  exit (if a.workload = "all" then run_all a else run_one a)
