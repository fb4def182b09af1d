(* FlipTracker benchmark harness.

   Regenerates every table and figure of the paper's evaluation, and
   the framework's own use-case tables (ablate, trace-codec,
   harden-overhead, recovery-overhead, arch-structures):

     fig4  LLVM parallel tracing overhead        (Section V-B)
     fig5  per-code-region success rates         (Section V-C)
     fig6  per-iteration success rates           (Section V-C)
     fig7  the LULESH ACL time series            (Sections II/VI)
     tab1  region inventory + patterns found     (Section VI)
     tab2  repeated additions vs error magnitude (Section VI)
     tab3  Use Case 1: hardened CG               (Section VII-A)
     tab4  Use Case 2: resilience prediction     (Section VII-B)

   Usage: main.exe [--effort quick|default|paper | --quick | --paper]
                   [--jobs N] [experiment ...]
   With no experiment arguments, everything runs.  --jobs fans the
   campaigns of fig5/fig6/tab3/tab4 out over N domains (the counts are
   identical for any N). *)

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let hr () = print_endline (String.make 78 '-')

let header title =
  hr ();
  print_endline title;
  hr ()

let rate = Campaign.success_rate

(* [f ()] and its wall-clock seconds *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- Figure 4 ---------------------------------------------------------- *)

let fig4 effort =
  header "Figure 4: parallel tracing overhead (simulated MPI ranks)";
  Printf.printf "%-8s %6s %14s %14s %10s\n" "app" "ranks" "untraced(s)"
    "traced(s)" "overhead";
  let rows = Experiments.fig4 ~effort () in
  List.iter
    (fun (r : Experiments.fig4_row) ->
      Printf.printf "%-8s %6d %14.3f %14.3f %9.1f%%\n" r.f4_app r.f4_ranks
        r.f4_untraced_s r.f4_traced_s (100.0 *. r.f4_overhead))
    rows;
  let avg =
    List.fold_left (fun a (r : Experiments.fig4_row) -> a +. r.f4_overhead)
      0.0 rows
    /. float_of_int (List.length rows)
  in
  Printf.printf
    "average tracing overhead: %.1f%% (paper: 45%% average at 64 ranks)\n"
    (100.0 *. avg)

(* --- Figure 5 ---------------------------------------------------------- *)

let fig5 effort =
  header
    "Figure 5: success rate per code region (instance 0), internal vs input";
  Printf.printf "%-8s %-8s %28s %28s\n" "app" "region" "internal" "input";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.region_rates_row) ->
          Printf.printf "%-8s %-8s  %5.2f |%-20s %5.2f |%-20s\n" r.rr_app
            r.rr_region (rate r.rr_internal)
            (bar 20 (rate r.rr_internal))
            (rate r.rr_input)
            (bar 20 (rate r.rr_input)))
        (Experiments.fig5 ~effort app))
    Registry.analyzed

(* --- Figure 6 ---------------------------------------------------------- *)

let fig6 effort =
  header "Figure 6: success rate per main-loop iteration, internal vs input";
  Printf.printf "%-8s %5s %28s %28s\n" "app" "iter" "internal" "input";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.iteration_rates_row) ->
          Printf.printf "%-8s %5d  %5.2f |%-20s %5.2f |%-20s\n" r.ir_app
            r.ir_iteration (rate r.ir_internal)
            (bar 20 (rate r.ir_internal))
            (rate r.ir_input)
            (bar 20 (rate r.ir_input)))
        (Experiments.fig6 ~effort app))
    Registry.analyzed

(* --- Figure 7 ---------------------------------------------------------- *)

let fig7 _effort =
  header "Figure 7: alive corrupted locations over time (LULESH)";
  let s = Experiments.fig7 Lulesh.app in
  Printf.printf "fault: %s\n" (Machine.fault_to_string s.Experiments.as_fault);
  let acl = s.Experiments.as_result in
  Printf.printf "ACL peak %d; %d death events; %d masking events; %s\n\n"
    acl.Acl.peak
    (List.length acl.Acl.deaths)
    (List.length acl.Acl.maskings)
    (match acl.Acl.divergence with
    | Some i -> Printf.sprintf "control diverged at event %d" i
    | None -> "no control divergence");
  let n = Array.length acl.Acl.series in
  let step = max 1 (n / 50) in
  Printf.printf "%12s %6s\n" "instruction" "ACL";
  Array.iteri
    (fun i (seq, count) ->
      if i mod step = 0 || i = n - 1 then
        Printf.printf "%12d %6d |%s\n" seq count
          (bar 40 (float_of_int count /. float_of_int (max 1 acl.Acl.peak))))
    acl.Acl.series;
  print_endline
    "(expected shape: rises as the error spreads, falls as temporaries die \
     at region boundaries - cf. paper Figure 7)"

(* --- Table I ------------------------------------------------------------ *)

let tab1 effort =
  header "Table I: resilience patterns observed per code region";
  Printf.printf "%-8s %-8s %-10s %10s   %s\n" "program" "region" "lines"
    "#instr/it" "patterns found (instances)";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.table1_row) ->
          let lo, hi = r.t1_lines in
          let pats =
            r.t1_counts
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (p, n) ->
                   Printf.sprintf "%s(%d)" (Pattern.to_string p) n)
            |> String.concat " "
          in
          Printf.printf "%-8s %-8s %4d-%-5d %10d   %s\n" r.t1_app r.t1_region
            lo hi r.t1_instr_per_iter
            (if String.equal pats "" then "none observed" else pats))
        (Experiments.table1 ~effort app))
    Registry.analyzed

(* --- Table II ----------------------------------------------------------- *)

let tab2 _effort =
  header "Table II: repeated additions shrink the error magnitude (MG)";
  Printf.printf "%5s %22s %22s %16s\n" "itr" "original value"
    "corrupted value" "error magnitude";
  List.iter
    (fun (r : Experiments.table2_row) ->
      Printf.printf "%5d %22.15f %22.15f %16.6e\n" (r.t2_iteration + 1)
        r.t2_correct r.t2_faulty r.t2_magnitude)
    (Experiments.table2 ());
  print_endline
    "(expected shape: strictly decreasing error magnitude across V-cycles, \
     as in paper Table II)"

(* --- Table III ---------------------------------------------------------- *)

let tab3 effort =
  header "Table III: resilience patterns applied to CG (Use Case 1)";
  Printf.printf "%-10s %12s %14s %26s\n" "variant" "app resi."
    "v/iv@sprnvc" "exe time (s) min-max/avg";
  List.iter
    (fun (r : Experiments.table3_row) ->
      Printf.printf "%-10s %12.3f %14.3f %12.4f-%.4f/%.4f\n" r.t3_variant
        (rate r.t3_counts) (rate r.t3_sprnvc) r.t3_time_min r.t3_time_max
        r.t3_time_avg)
    (Experiments.table3 ~effort ());
  print_endline
    "(expected shape: the DCL+overwriting transformation raises the \
     resilience of the code it modifies (sprnvc column) sharply and the \
     whole-app rate slightly - its dilution is proportional to sprnvc's \
     share of execution - with ~no runtime cost; cf. paper Table III)"

(* --- Table IV ----------------------------------------------------------- *)

let tab4 effort =
  header "Table IV: pattern rates and resilience prediction (Use Case 2)";
  let t = Experiments.table4 ~effort () in
  Printf.printf "%-8s %9s %9s %9s %9s %9s %9s | %8s %8s %7s %8s %7s\n" "app"
    "cond" "shift" "trunc" "dead" "radd" "overwr" "meas.SR" "pred.SR" "err"
    "w-pred" "w-err";
  List.iter
    (fun (r : Experiments.table4_row) ->
      let x = r.t4_rates in
      Printf.printf
        "%-8s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f | %8.3f %8.3f %6.1f%% %8.3f %6.1f%%\n"
        r.t4_app x.Rates.condition x.Rates.shift x.Rates.truncation
        x.Rates.dead_location x.Rates.repeated_addition x.Rates.overwrite
        r.t4_measured r.t4_predicted (100.0 *. r.t4_error)
        r.t4_weighted_predicted
        (100.0 *. r.t4_weighted_error))
    t.Experiments.rows;
  Printf.printf "\nfull-fit R-square: %.3f (paper: 0.964)\n"
    t.Experiments.r_square;
  Printf.printf
    "mean leave-one-out prediction error: %.1f%% (paper: 14.3%% excl. DC)\n"
    (100.0 *. t.Experiments.unweighted_loo_error);
  Printf.printf
    "with masking-probability-weighted features (paper future work): %.1f%%\n"
    (100.0 *. t.Experiments.weighted_loo_error);
  Printf.printf "standardized coefficients:";
  Array.iteri
    (fun i c -> Printf.printf " %s=%.2f" Rates.feature_names.(i) c)
    t.Experiments.std_coefficients;
  print_newline ()

(* --- ablations ----------------------------------------------------------- *)

let ablate _effort =
  header "Ablations: effect of the framework's own design choices";
  let pair (p : Ablation.campaign_pair) =
    Printf.printf "%s\n" p.Ablation.label;
    let line name (c : Campaign.counts) =
      Printf.printf "  %-22s rate %.3f (success %d, failed %d, crashed %d)\n"
        name (rate c) c.Campaign.success c.Campaign.failed c.Campaign.crashed
    in
    line p.Ablation.variant_a p.Ablation.counts_a;
    line p.Ablation.variant_b p.Ablation.counts_b
  in
  pair (Ablation.typed_bits ());
  print_newline ();
  pair (Ablation.heap_slack ());
  print_newline ();
  let t = Ablation.acl_vs_taint () in
  Printf.printf "ACL (liveness-aware) vs plain taint counting on %s:\n"
    t.Ablation.at_app;
  Printf.printf "  ACL   peak %5d, final %5d\n" t.Ablation.acl_peak
    t.Ablation.acl_final;
  Printf.printf "  taint peak %5d, final %5d\n" t.Ablation.taint_peak
    t.Ablation.taint_final;
  print_endline
    "  (taint overstates the error footprint by counting corrupted-but-dead \
     locations; liveness tracking is what lets the ACL series fall)"

(* --- trace-codec -------------------------------------------------------- *)

(* Text-vs-binary codec comparison with a hard round-trip gate: both
   files are read back and compared event-for-event against the
   original trace, and any mismatch makes the experiment exit nonzero —
   so `--quick trace-codec` doubles as the CI smoke test for the
   serialization layer. *)

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.seq = b.Trace.seq && a.fidx = b.fidx && a.pc = b.pc && a.act = b.act
  && a.line = b.line && a.region = b.region && a.instance = b.instance
  && a.iter = b.iter && a.op = b.op
  && Array.length a.reads = Array.length b.reads
  && Array.length a.writes = Array.length b.writes
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.reads b.reads
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.writes b.writes

let trace_codec effort =
  header "trace-codec: text vs binary trace serialization";
  let apps =
    (* quick keeps the CI smoke run on the small IS trace; larger
       efforts add CG, the trace the compression target is quoted on. *)
    if effort.Effort.acl_injections <= Effort.quick.Effort.acl_injections then
      [ Is.app ]
    else [ Is.app; Cg.app ]
  in
  let obs = Obs.create () in
  let failures = ref 0 in
  Printf.printf "%-6s %9s %12s %12s %7s %10s %10s\n" "app" "events" "text(B)"
    "binary(B)" "ratio" "enc(MB/s)" "dec(MB/s)";
  List.iter
    (fun (app : App.t) ->
      let _, trace = App.trace app in
      let n = Trace.length trace in
      let path = Filename.temp_file "ft_codec" ".trace" in
      let save fmt =
        let (), dt = timed (fun () -> Trace_io.save ~format:fmt path trace) in
        (dt, (Unix.stat path).Unix.st_size)
      in
      let check label =
        let back, dt = timed (fun () -> Trace_io.load path) in
        let ok = ref (Trace.length back = n) in
        if !ok then
          Trace.iteri
            (fun i e -> if not (event_equal e (Trace.get back i)) then ok := false)
            trace;
        if not !ok then begin
          incr failures;
          Printf.printf "  ROUND-TRIP MISMATCH: %s %s\n" app.App.name label
        end;
        dt
      in
      let _, text_bytes = save Trace_io.Text in
      ignore (check "text");
      let bin_s, bin_bytes = save Trace_io.Binary in
      let dec_s = check "binary" in
      Sys.remove path;
      (* per-event binary size distribution, via the low-level codec *)
      let enc = Trace_io.encoder () in
      let buf = Buffer.create 256 in
      let hist = app.App.name ^ "/event-bytes" in
      Trace.iter
        (fun e ->
          Buffer.clear buf;
          Trace_io.encode_event enc buf e;
          Obs.observe obs hist (Buffer.length buf))
        trace;
      let mbps bytes s =
        if s > 0.0 then float_of_int bytes /. 1e6 /. s else 0.0
      in
      let ratio = float_of_int text_bytes /. float_of_int (max 1 bin_bytes) in
      Printf.printf "%-6s %9d %12d %12d %6.2fx %10.1f %10.1f\n" app.App.name n
        text_bytes bin_bytes ratio (mbps bin_bytes bin_s) (mbps bin_bytes dec_s);
      if ratio < 4.0 then
        Printf.printf "  WARNING: binary/text ratio %.2fx below the 4x target\n"
          ratio)
    apps;
  print_newline ();
  print_string (Obs.report obs);
  if !failures > 0 then begin
    Printf.printf "trace-codec: %d round-trip failure(s)\n" !failures;
    exit 1
  end
  else print_endline "trace-codec: all round-trips bit-exact"

(* --- harden-overhead ---------------------------------------------------- *)

let harden_overhead (effort : Effort.t) =
  header
    "harden-overhead: cost of the automatic hardening pipeline (all passes)";
  let apps =
    (* quick = the two Use Case apps; otherwise the full registry *)
    if Option.value ~default:max_int effort.Effort.campaign.Campaign.max_trials
       <= 40
    then [ Registry.find "CG"; Registry.find "IS" ]
    else Registry.all
  in
  Printf.printf "%-8s %9s %9s %7s %10s %10s %7s %9s\n" "app" "static"
    "static'" "x" "dynamic" "dynamic'" "x" "wall x";
  List.iter
    (fun (app : App.t) ->
      let base = App.program app in
      let hard = Harden.transform Passes.all base in
      let rb, tb = timed (fun () -> Machine.run_plain base) in
      let rh, th = timed (fun () -> Machine.run_plain hard) in
      assert (App.verified rh.Machine.output);
      Printf.printf "%-8s %9d %9d %6.2fx %10d %10d %6.2fx %8.2fx\n"
        app.App.name (Prog.static_size base) (Prog.static_size hard)
        (float_of_int (Prog.static_size hard)
        /. float_of_int (max 1 (Prog.static_size base)))
        rb.Machine.instructions rh.Machine.instructions
        (float_of_int rh.Machine.instructions
        /. float_of_int (max 1 rb.Machine.instructions))
        (th /. Float.max 1e-9 tb))
    apps;
  print_endline
    "(expected shape: duplicate-compare dominates the overhead in its \
     top-K regions; every hardened run still verifies fault-free)"

(* --- recovery-overhead --------------------------------------------------- *)

(* What does arming checkpoint/rollback cost when nothing goes wrong?
   The snapshot interval bounds the work: a full register+memory copy
   every [snapshot_interval] instructions on the entry frame.  Fault-free
   runs must take zero restores and verify identically. *)
let recovery_overhead _effort =
  header "recovery-overhead: fault-free cost of arming checkpoint/rollback";
  Printf.printf "%-8s %10s %12s %12s %9s %9s\n" "app" "instrs" "plain(s)"
    "armed(s)" "overhead" "restores";
  List.iter
    (fun (app : App.t) ->
      let prog = App.program app in
      let time cfg = timed (fun () -> Machine.run prog cfg) in
      let rp, tp = time Machine.default_config in
      let ra, ta =
        time
          {
            Machine.default_config with
            recover = Some Machine.default_recover;
          }
      in
      assert (ra.Machine.outcome = Machine.Finished);
      assert (ra.Machine.restores = 0);
      assert (String.equal rp.Machine.output ra.Machine.output);
      Printf.printf "%-8s %10d %12.3f %12.3f %8.1f%% %9d\n" app.App.name
        rp.Machine.instructions tp ta
        (100.0 *. ((ta /. Float.max 1e-9 tp) -. 1.0))
        ra.Machine.restores)
    [ Cg.app; Mg.app; Is.app; Kmeans.app; Lulesh.app ];
  print_endline
    "(fault-free armed runs take zero restores and print byte-identical \
     output; the overhead is the bounded-interval snapshot copies)"

(* --- arch-structures ------------------------------------------------------ *)

(* One program injected through every microarchitectural surface: the
   per-structure outcome profiles (the FlipTracker-style comparison of
   where errors do and do not propagate from) plus the wall-clock cost
   of each surface — cache faults force the interpreter, istore faults
   re-bake a mutant per trial. *)
let arch_structures (effort : Effort.t) =
  header "arch-structures: per-structure campaign profiles and cost";
  let trials =
    min 120 (Option.value ~default:120 effort.Effort.campaign.Campaign.max_trials)
  in
  let app = Is.app in
  let r, wall =
    timed (fun () -> Arch_eval.evaluate ~trials ~jobs:effort.Effort.jobs app)
  in
  Printf.printf "%-11s %12s %6s %6s %6s %6s  %8s %8s\n" "structure"
    "population" "trials" "benign" "SDC" "crash" "SDCrate" "crashrt";
  List.iter
    (fun (c : Arch_eval.cell) ->
      let k = c.Arch_eval.ac_counts in
      Printf.printf "%-11s %12d %6d %6d %6d %6d  %8.4f %8.4f\n"
        (Structure.to_string c.Arch_eval.ac_structure)
        c.Arch_eval.ac_population k.Campaign.trials k.Campaign.success
        k.Campaign.failed k.Campaign.crashed
        (Arch_eval.sdc_rate k) (Arch_eval.crash_rate k))
    r.Arch_eval.ar_cells;
  Printf.printf
    "(%s, %d trials/structure, cache %s, %.1fs total; counts are a pure \
     function of (app, seed, structure))\n"
    r.Arch_eval.ar_app trials
    (Cache_model.geometry_to_string r.Arch_eval.ar_geometry)
    wall

(* --- driver ------------------------------------------------------------- *)

let all_experiments =
  [
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("tab1", tab1); ("tab2", tab2); ("tab3", tab3); ("tab4", tab4);
    ("ablate", ablate); ("trace-codec", trace_codec);
    ("harden-overhead", harden_overhead);
    ("recovery-overhead", recovery_overhead);
    ("arch-structures", arch_structures);
  ]

let () =
  let effort = ref Effort.default in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--effort" :: e :: rest ->
        effort := Effort.of_string e;
        parse rest
    | "--quick" :: rest ->
        effort := Effort.quick;
        parse rest
    | "--paper" :: rest ->
        effort := Effort.paper;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> effort := { !effort with Effort.jobs = j }
        | Some _ | None ->
            Printf.eprintf "--jobs needs a positive integer, got %S\n" n;
            exit 2);
        parse rest
    | name :: rest ->
        (match List.assoc_opt name all_experiments with
        | Some f -> chosen := !chosen @ [ (name, f) ]
        | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat " " (List.map fst all_experiments));
            exit 2);
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let todo = if !chosen = [] then all_experiments else !chosen in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f !effort) todo;
  hr ();
  Printf.printf "done in %.1f s\n" (Unix.gettimeofday () -. t0)
