(** The [analysis-cg] workload: the paper's fine-grained pipeline on CG.
    A traced fault-free run, its binary encoding, the per-instance
    split, region instances, the access index and one DDDG per
    instance; then a fixed set of seed-drawn faulty traced runs, the
    ACL table of each, and pattern detection.  No campaign layer runs
    here. *)

open Perfbench

let app_name = "CG"

(** Faulty runs traced and analysed per repetition. *)
let injections = 2

let setup_children = 2

type inputs = { app : App.t; faults : Machine.fault list; budget : int }

(** The hang budget of a faulty traced run, as {!Fliptracker.inject_and_analyze}
    sets it. *)
let budget_factor = 10

(** Set-up: bake CG, trace it, build its fault target, and draw the
    injections.  The ACL table compares the aligned traces of finished
    runs, so the workload analyses the first [injections] seed-drawn
    faults whose (compiled, untraced) run finishes: the pipeline's cost
    then follows the trace length, not where a crash happened to land. *)
let setup ~(seed : int) () : inputs * Setup.parts =
  let app, bake_s =
    Clock.timed (fun () ->
        let app = Setup.resolve app_name in
        ignore (App.program app);
        app)
  in
  let (clean, trace), trace_s = Clock.timed (fun () -> App.trace app) in
  let prog = App.program app in
  let target, target_s =
    Clock.timed (fun () -> Campaign.whole_program_target prog trace)
  in
  let budget = budget_factor * clean.Machine.instructions in
  let faults, plan_s =
    Clock.timed (fun () ->
        let run = Backend.runner Backend.Compiled prog in
        let rec draw index acc =
          if List.length acc = injections then List.rev acc
          else if index >= 1000 then failwith "no finished faulty run in 1000 draws"
          else
            let fault = Campaign.sample_fault (Rng.derive ~seed ~index) target in
            let r =
              run { Machine.default_config with fault = Some fault; budget }
            in
            draw (index + 1)
              (if r.Machine.outcome = Machine.Finished then fault :: acc else acc)
        in
        draw 0 [])
  in
  ({ app; faults; budget }, { Setup.bake_s; trace_s; target_s; plan_s })

(** What one repetition produced; identical across repetitions. *)
type product = {
  events : int;
  bytes : int;
  pieces : int;
  instances : int;
  nodes : int;
  acls : Acl.result list;
  patterns : int;
}

let acl_summary (a : Acl.result) =
  ( a.Acl.peak,
    a.Acl.final,
    List.length a.Acl.deaths,
    List.length a.Acl.maskings,
    a.Acl.divergence,
    a.Acl.series )

let same_product (p : product) (q : product) =
  p.events = q.events && p.bytes = q.bytes && p.pieces = q.pieces
  && p.instances = q.instances && p.nodes = q.nodes && p.patterns = q.patterns
  && List.map acl_summary p.acls = List.map acl_summary q.acls

(** One run of the pipeline, a span per step under a [pipeline] root. *)
let pipeline (r : Span.recorder) ~(dir : string) (inp : inputs) : product =
  Span.with_span r ~parent:Span.root "pipeline" (fun root ->
      let step name f = Span.with_span r ~parent:root name (fun _ -> f ()) in
      let _, trace = step "trace_run" (fun () -> App.trace inp.app) in
      let file = Filename.concat dir "cg.ftb" in
      step "encode" (fun () -> Trace_io.save ~format:Trace_io.Binary file trace);
      let piece_dir = Filename.concat dir "pieces" in
      Workload.remove_tree piece_dir;
      let pieces =
        step "split" (fun () ->
            Trace_io.split_by_region_instance ~dir:piece_dir
              ~format:Trace_io.Binary trace)
      in
      let instances = step "region" (fun () -> Region.instances trace) in
      let access = step "access" (fun () -> Access.build trace) in
      let nodes =
        step "dddg" (fun () ->
            List.fold_left
              (fun n (i : Region.instance) ->
                n
                + Array.length
                    (Dddg.build trace access ~lo:i.Region.lo ~hi:i.Region.hi)
                      .Dddg.nodes)
              0 instances)
      in
      let acls =
        List.map
          (fun fault ->
            let _, faulty =
              step "faulty_trace" (fun () ->
                  App.trace_with_fault inp.app fault ~budget:inp.budget)
            in
            step "acl" (fun () -> Acl.analyze ~fault ~clean:trace ~faulty ()))
          inp.faults
      in
      let patterns =
        step "detect" (fun () ->
            Dynamic_detect.merge (List.map Dynamic_detect.of_acl acls))
      in
      ignore (step "rates" (fun () -> Rates.compute trace access));
      {
        events = Trace.length trace;
        bytes = (Unix.stat file).Unix.st_size;
        pieces = List.length pieces;
        instances = List.length instances;
        nodes;
        acls;
        patterns = List.length patterns;
      })

(** Per-step layer metrics: the median per repetition of each step's
    summed span time. *)
let step_layers (v : Layers.values) (spans : Span.t list) : unit =
  let per_rep name =
    let pipelines = List.filter (fun s -> s.Span.name = "pipeline") spans in
    Summary.median
      (List.map
         (fun p ->
           List.fold_left
             (fun a s ->
               if s.Span.parent = p.Span.id && s.Span.name = name then
                 a +. Span.duration s
               else a)
             0.0 spans)
         pipelines)
  in
  List.iter
    (fun (step, key) -> Layers.set v key (per_rep step))
    [
      ("trace_run", "analysis.trace_run_s");
      ("encode", "analysis.encode_s");
      ("split", "analysis.split_s");
      ("region", "analysis.region_s");
      ("access", "analysis.access_s");
      ("dddg", "analysis.dddg_s");
      ("faulty_trace", "analysis.faulty_trace_s");
      ("acl", "analysis.acl_s");
      ("detect", "patterns.detect_s");
      ("rates", "patterns.rates_s");
    ]

let run ~(seed : int) ~(seconds : float) ~(traced : bool) ~(tmp : string)
    (gate : Gate.t) : Workload.measured =
  let inp, setup = Setup.sampled setup_children (setup ~seed) in
  let recorder = Span.recorder () in
  let results, gc =
    Workload.gc_delta (fun () ->
        Workload.repeat ~seconds ~min_reps:1 (fun () ->
            Clock.timed (fun () -> pipeline recorder ~dir:tmp inp)))
  in
  let first, _ = List.hd results in
  List.iteri
    (fun k (p, _) ->
      Gate.check gate (same_product first p)
        (Printf.sprintf "analysis rep %d produced different results than rep 0" k))
    results;
  (* the binary trace round-trips its event count *)
  let file = Filename.concat tmp "cg.ftb" in
  let decoded =
    (Trace_io.source_of_file file).Trace_io.run (Seq.fold_left (fun n _ -> n + 1) 0)
  in
  Gate.check gate (decoded = first.events)
    (Printf.sprintf "binary trace decodes to %d events, encoded %d" decoded
       first.events);
  (* the streaming ACL agrees with the in-memory one on the first injection *)
  let fault = List.hd inp.faults in
  let _, faulty = App.trace_with_fault inp.app fault ~budget:inp.budget in
  let streamed =
    Acl.analyze_stream ~fault ~clean:(Trace_io.source_of_file file)
      ~faulty:(Trace_io.source_of_trace faulty) ()
  in
  Gate.check gate
    (acl_summary streamed = acl_summary (List.hd first.acls))
    "Acl.analyze_stream and Acl.analyze disagree on the first injection";
  let v : Layers.values = Hashtbl.create 32 in
  let notes =
    if not traced then []
    else begin
      let reps = List.length results in
      let spans = Span.spans recorder in
      step_layers v spans;
      Setup.layers v setup;
      let fi = Float.of_int in
      Layers.set v "analysis.events" (fi first.events);
      Layers.set v "analysis.encode_bytes" (fi first.bytes);
      Layers.set v "analysis.pieces" (fi first.pieces);
      Layers.set v "analysis.dddg_nodes" (fi first.nodes);
      let acl_sum f = fi (List.fold_left (fun a x -> a + f x) 0 first.acls) in
      Layers.set v "analysis.acl_peak" (acl_sum (fun a -> a.Acl.peak));
      Layers.set v "analysis.acl_deaths"
        (acl_sum (fun a -> List.length a.Acl.deaths));
      Layers.set v "analysis.acl_maskings"
        (acl_sum (fun a -> List.length a.Acl.maskings));
      Layers.set v "analysis.minor_words" (gc.Workload.minor_words /. fi reps);
      Layers.set v "analysis.major_gcs"
        (fi gc.Workload.major_collections /. fi reps);
      Workload.gc_line "analysis-cg" gc
      :: List.map
           (fun (name, s) -> Printf.sprintf "span %-12s self %.6f s" name s)
           (Span.self_by_name spans)
    end
  in
  {
    Workload.setup;
    walls = List.map snd results;
    trials = injections;
    attempted = injections * List.length results;
    failed = 0;
    counts = None;
    layers = v;
    notes;
  }
