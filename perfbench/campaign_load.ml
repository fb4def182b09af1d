(** The three campaign workloads.  All run the same campaign — IS, the
    register-file surface, the compiled backend, no early stop, the
    run's seed and the full 95%/3% design — so their counts must be
    byte-identical; they differ only in who drives the trials:

    - [Serial]: {!Executor.run} at jobs 1, no journal;
    - [Parallel]: {!Executor.run} at jobs = cores, journaling;
    - [Server]: {!Server.run_campaign} with workers = cores forked
      processes and a sharded journal. *)

open Perfbench

type mode = Serial | Parallel | Server

let app_name = "IS"

(** Cold set-up samples taken besides the run's own set-up. *)
let setup_children = 4

(** Every [oracle_stride]-th trial is re-run on the interpreter. *)
let oracle_stride = 16

(** Per-trial values the traced kernel records, indexed by trial. *)
type trial_stats = {
  t0 : float array;
  t1 : float array;
  minor : float array;
  promoted : float array;
  instructions : float array;
  budget_hit : bool array;
}

let trial_stats n =
  {
    t0 = Array.make n 0.0;
    t1 = Array.make n 0.0;
    minor = Array.make n 0.0;
    promoted = Array.make n 0.0;
    instructions = Array.make n 0.0;
    budget_hit = Array.make n false;
  }

(** One trial rebuilt from public pieces — [Rng.derive] into
    [Campaign.sample_injection], then [Campaign.run_one_with] over a
    timed wrapper of the compiled runner and of [verify] — recording a
    span per layer under [root]. *)
let traced_kernel (r : Span.recorder) ~(root : int) (st : trial_stats)
    (plan : Server.plan) (ccfg : Campaign.config) : int -> Campaign.outcome_class
    =
  let run = Backend.runner Backend.Compiled plan.Server.pl_prog in
  let budget =
    ccfg.Campaign.budget_factor * max 1 plan.Server.pl_clean_instructions
  in
  fun i ->
    st.t0.(i) <- Clock.now ();
    let o =
      Span.with_span r ~parent:root "trial" (fun tid ->
          let injection =
            Span.with_span r ~parent:tid "sample" (fun _ ->
                Campaign.sample_injection ~model:ccfg.Campaign.model
                  (Rng.derive ~seed:ccfg.Campaign.seed ~index:i)
                  plan.Server.pl_target)
          in
          let fault =
            match injection with
            | Campaign.Vm_fault f -> f
            | Campaign.Istore_flip _ ->
                invalid_arg "register-file campaign sampled an istore flip"
          in
          let exec cfg =
            Span.with_span r ~parent:tid "exec" (fun _ ->
                let _, p0, _ = Gc.counters () in
                let w0 = Gc.minor_words () in
                let res = run cfg in
                let w1 = Gc.minor_words () in
                let _, p1, _ = Gc.counters () in
                st.minor.(i) <- w1 -. w0;
                st.promoted.(i) <- p1 -. p0;
                st.instructions.(i) <- Float.of_int res.Machine.instructions;
                st.budget_hit.(i) <- res.Machine.outcome = Machine.Budget_exceeded;
                res)
          in
          let verify res =
            Span.with_span r ~parent:tid "verify" (fun _ ->
                App.verified res.Machine.output)
          in
          Campaign.run_one_with exec ~budget ~recovery:ccfg.Campaign.recovery
            ~verify fault)
    in
    st.t1.(i) <- Clock.now ();
    o

(** Every trial of a repetition must classify as the reference did, and
    the counts must be byte-identical. *)
let check_outcomes (gate : Gate.t) ~(what : string)
    (reference : Campaign.outcome_class array)
    (outcomes : Campaign.outcome_class Executor.outcome array) : unit =
  let n = Array.length reference in
  Gate.check gate
    (Array.length outcomes = n)
    (Printf.sprintf "%s: %d trials completed, %d planned" what
       (Array.length outcomes) n);
  let bad =
    List.filter
      (fun i ->
        match outcomes.(i) with
        | Executor.Done o -> o <> reference.(i)
        | Executor.Infra_error _ -> true)
      (List.init (min n (Array.length outcomes)) Fun.id)
  in
  Gate.check gate (bad = [])
    (match bad with
    | [] -> ""
    | i :: _ ->
        Printf.sprintf "%s: %d trials classified differently, first #%d (%s)"
          what (List.length bad) i
          (match outcomes.(i) with
          | Executor.Done o ->
              Campaign.encode_outcome o ^ " vs "
              ^ Campaign.encode_outcome reference.(i)
          | Executor.Infra_error e -> e));
  let counts a =
    Array.fold_left Campaign.add_outcome Campaign.zero_counts a
  in
  Gate.same_counts gate ~what ~expected:(counts reference)
    ~actual:(Campaign.counts_of_outcomes outcomes)

let p50 xs = Summary.percentile 0.5 xs
let p99 xs = Summary.percentile 0.99 xs

let durations name spans =
  Array.of_list
    (List.filter_map
       (fun s -> if s.Span.name = name then Some (Span.duration s) else None)
       spans)

(** Trial-kernel layers of the traced reps: per-trial latencies, the
    self-time split, allocation per trial. *)
let kernel_layers (v : Layers.values) (spans : Span.t list)
    (stats : trial_stats list) (gc : Workload.gc) : (string * float) list =
  let n =
    Float.of_int (List.fold_left (fun a s -> a + Array.length s.minor) 0 stats)
  in
  let sum f =
    List.fold_left (fun a s -> Array.fold_left ( +. ) a (f s)) 0.0 stats
  in
  let set = Layers.set v in
  set "faults.sample_us_p50" (1e6 *. p50 (durations "sample" spans));
  set "vm.exec_ms_p50" (1e3 *. p50 (durations "exec" spans));
  set "vm.exec_ms_p99" (1e3 *. p99 (durations "exec" spans));
  set "apps.verify_us_p50" (1e6 *. p50 (durations "verify" spans));
  set "trial.ms_p50" (1e3 *. p50 (durations "trial" spans));
  set "trial.ms_p99" (1e3 *. p99 (durations "trial" spans));
  let trial_self =
    Array.of_list
      (List.filter_map
         (fun (s, self) -> if s.Span.name = "trial" then Some self else None)
         (Span.self_times spans))
  in
  set "trial.self_us_p50" (1e6 *. p50 trial_self);
  set "vm.instructions_per_trial" (sum (fun s -> s.instructions) /. n);
  set "vm.budget_share"
    (sum (fun s -> Array.map (fun b -> if b then 1.0 else 0.0) s.budget_hit)
    /. n);
  set "vm.minor_words_per_trial" (sum (fun s -> s.minor) /. n);
  set "vm.promoted_words_per_trial" (sum (fun s -> s.promoted) /. n);
  let per_ktrial k = 1000.0 *. Float.of_int k /. n in
  set "vm.minor_gcs_per_ktrial" (per_ktrial gc.Workload.minor_collections);
  set "vm.major_gcs_per_ktrial" (per_ktrial gc.Workload.major_collections);
  Span.self_by_name spans

(** The self-time split of the traced campaign wall time: every layer's
    self time, the root's own self time named [unattributed]. *)
let split_lines (v : Layers.values) (gate : Gate.t)
    (self : (string * float) list) ~(wall : float) : string list =
  let get n = Option.value (List.assoc_opt n self) ~default:0.0 in
  let parts =
    [
      ("faults.sample", get "sample", "faults.sample_share");
      ("vm.exec (memory init + execute)", get "exec", "vm.exec_share");
      ("apps.verify", get "verify", "apps.verify_share");
      ("trial self", get "trial", "trial.self_share");
      ("unattributed", get "campaign", "trial.unattributed_share");
    ]
  in
  let total = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 parts in
  Gate.check gate
    (Float.abs (total -. wall) <= 1e-6 *. wall)
    (Printf.sprintf "self times sum to %.6f s, traced wall is %.6f s" total
       wall);
  List.iter (fun (_, s, key) -> Layers.set v key (s /. wall)) parts;
  List.map
    (fun (name, s, _) ->
      Printf.sprintf "self %-32s %10.6f s %6.2f%%" name s (100.0 *. s /. wall))
    parts
  @ [
      Printf.sprintf "self %-32s %10.6f s (traced wall %.6f s)" "sum" total
        wall;
    ]

(** Parallel-run layers from the per-trial intervals: how busy the
    domains were, and the gap between one batch's last trial and the
    next batch's first (barrier, pool respawn, journal fsync). *)
let runtime_layers (v : Layers.values) (stats : trial_stats list)
    ~(jobs : int) ~(total : int) ~(wall : float) : unit =
  let busy =
    List.fold_left
      (fun a st ->
        let s = ref a in
        Array.iteri (fun i t0 -> s := !s +. (st.t1.(i) -. t0)) st.t0;
        !s)
      0.0 stats
  in
  Layers.set v "runtime.busy_share" (busy /. (Float.of_int jobs *. wall));
  let batch = Executor.default_config.Executor.batch in
  let batches = (total + batch - 1) / batch in
  let gap st b =
    let last_end = ref neg_infinity and next_start = ref infinity in
    for i = b * batch to min total ((b + 1) * batch) - 1 do
      last_end := Float.max !last_end st.t1.(i)
    done;
    for i = (b + 1) * batch to min total ((b + 2) * batch) - 1 do
      next_start := Float.min !next_start st.t0.(i)
    done;
    !next_start -. !last_end
  in
  let gaps =
    List.concat_map (fun st -> List.init (batches - 1) (gap st)) stats
  in
  Layers.set v "runtime.batch_gap_ms_p50" (1e3 *. p50 (Array.of_list gaps));
  Layers.set v "runtime.batches" (Float.of_int batches)

let mode_name = function
  | Serial -> "serial"
  | Parallel -> "parallel"
  | Server -> "server"

let run ~(mode : mode) ~(seed : int) ~(seconds : float) ~(traced : bool)
    ~(jobs : int) ~(tmp : string) (gate : Gate.t) : Workload.measured =
  let plan, setup =
    Setup.sampled setup_children (fun () -> Setup.campaign app_name)
  in
  let ccfg = { Campaign.default_config with seed } in
  let spec = Server.campaign_spec plan ccfg in
  let total = spec.Executor.total in
  (* the jobs-1 reference, which also warms the plan and the heap *)
  let reference = Array.init total spec.Executor.run_trial in
  let oracle =
    Campaign.trial_fun ~backend:Backend.Interp plan.Server.pl_prog
      ~verify:(fun res -> App.verified res.Machine.output)
      ~clean_instructions:plan.Server.pl_clean_instructions ~cfg:ccfg
      plan.Server.pl_target
  in
  let sampled =
    List.init
      ((total + oracle_stride - 1) / oracle_stride)
      (fun k -> k * oracle_stride)
  in
  let mismatched = List.filter (fun i -> oracle i <> reference.(i)) sampled in
  Gate.check gate (mismatched = [])
    (Printf.sprintf
       "interpreter oracle disagrees with the compiled backend on trials %s"
       (String.concat "," (List.map string_of_int mismatched)));
  let journal = Filename.concat tmp "journal" in
  let journal_dir = Filename.concat tmp "shards" in
  let obs = Obs.create () in
  (* the serial split needs no executor metrics, and its untraced reps
     must run exactly as in an untraced run for the overhead ratio *)
  let metrics = if traced && mode <> Serial then Some obs else None in
  let spawn_s = ref [] and gaps = ref [] and idles = ref 0 in
  (* one repetition; [kernel] replaces the trial function (traced runs) *)
  let rep ?(kernel = spec.Executor.run_trial) () =
    let spec = { spec with Executor.run_trial = kernel } in
    match mode with
    | Serial ->
        Executor.run ~cfg:{ Executor.default_config with jobs = 1; metrics } spec
    | Parallel ->
        Executor.run
          ~cfg:
            { Executor.default_config with jobs; journal = Some journal; metrics }
          spec
    | Server ->
        Workload.remove_tree journal_dir;
        let t0 = Clock.now () in
        let last = ref None in
        let on_progress _ =
          let now = Clock.now () in
          (match !last with
          | None -> spawn_s := (now -. t0) :: !spawn_s
          | Some t -> gaps := (now -. t) :: !gaps);
          last := Some now
        in
        snd
          (Server.run_campaign
             ~cfg:
               {
                 Server.default_config with
                 workers = jobs;
                 journal_dir = Some journal_dir;
                 metrics;
                 on_progress = Some on_progress;
               }
             ~idle:(fun () -> incr idles)
             plan ccfg)
  in
  let what = mode_name mode ^ " rep" in
  let timed_rep ?kernel what =
    let r, wall = Clock.timed (fun () -> rep ?kernel ()) in
    check_outcomes gate ~what reference r.Executor.outcomes;
    (r, wall)
  in
  let v : Layers.values = Hashtbl.create 64 in
  let plain, traced_reps, notes =
    if not traced then
      (Workload.repeat ~seconds ~min_reps:3 (fun () -> timed_rep what), [], [])
    else begin
      let recorder = Span.recorder () in
      let stats = ref [] in
      let traced_rep () =
        let st = trial_stats total in
        stats := st :: !stats;
        Span.with_span recorder ~parent:Span.root "campaign" (fun root ->
            timed_rep
              ~kernel:(traced_kernel recorder ~root st plan ccfg)
              (what ^ " (traced)"))
      in
      (* serial alternates untraced and traced reps for the overhead
         ratio; trials inside forked server workers cannot be traced *)
      let pairs, gc =
        Workload.gc_delta (fun () ->
            Workload.repeat ~seconds ~min_reps:2 (fun () ->
                match mode with
                | Serial -> (Some (timed_rep what), Some (traced_rep ()))
                | Parallel -> (None, Some (traced_rep ()))
                | Server -> (Some (timed_rep what), None)))
      in
      let plain = List.filter_map fst pairs in
      let traced_reps = List.filter_map snd pairs in
      let spans = Span.spans recorder in
      Setup.layers v setup;
      let self = if traced_reps = [] then [] else kernel_layers v spans !stats gc in
      let per_rep reps x = x /. Float.of_int (List.length reps) in
      let counter k =
        Float.of_int (Option.value (Obs.counter_value obs k) ~default:0)
      in
      let set = Layers.set v in
      let split =
        match mode with
        | Serial ->
            let tps reps =
              Summary.median (List.map (fun (_, w) -> Float.of_int total /. w) reps)
            in
            set "trace_overhead" (tps traced_reps /. tps plain);
            let wall =
              List.fold_left
                (fun a s ->
                  if s.Span.name = "campaign" then a +. Span.duration s else a)
                0.0 spans
            in
            split_lines v gate self ~wall
        | Parallel ->
            runtime_layers v !stats ~jobs ~total
              ~wall:(List.fold_left (fun a (_, w) -> a +. w) 0.0 traced_reps);
            set "runtime.journal_s"
              (per_rep traced_reps
                 (Option.value
                    (Obs.phase_wall obs "executor/journal")
                    ~default:0.0));
            set "runtime.journal_bytes"
              (Float.of_int (Workload.tree_bytes journal));
            set "runtime.retries" (counter "executor/retries");
            []
        | Server ->
            let gaps = Array.of_list !gaps in
            set "server.spawn_s" (Summary.median !spawn_s);
            set "server.progress_gap_ms_p50" (1e3 *. p50 gaps);
            set "server.progress_gap_ms_p99" (1e3 *. p99 gaps);
            set "server.idle_iterations" (per_rep plain (Float.of_int !idles));
            set "server.journal_bytes"
              (Float.of_int (Workload.tree_bytes journal_dir));
            set "server.workers_forked"
              (per_rep plain (counter "server/workers-forked"));
            set "server.leases_stolen" (counter "server/leases-stolen");
            set "server.heartbeats_missed" (counter "server/heartbeats-missed");
            set "server.retries" (counter "server/retries");
            []
      in
      ( plain,
        traced_reps,
        (Workload.gc_line what gc
        :: List.map
             (fun (name, s) -> Printf.sprintf "span %-10s self %.6f s" name s)
             self)
        @ split )
    end
  in
  let all = plain @ traced_reps in
  {
    Workload.setup;
    walls = List.map snd plain;
    trials = total;
    attempted = List.fold_left (fun a (r, _) -> a + r.Executor.completed) 0 all;
    failed = List.fold_left (fun a (r, _) -> a + r.Executor.infra_errors) 0 all;
    counts =
      Some (Array.fold_left Campaign.add_outcome Campaign.zero_counts reference);
    layers = v;
    notes;
  }
