(* Differential identity of the compiled execution backend.

   The compiled backend must be bit-identical to the interpreter on
   the fixed seq contract: same outcome, output, final memory,
   instruction count, iteration count, and fault firing — for every
   registry program, its optimized (@opt:all) and hardened (@all)
   variants, fault-free and under each fault kind at sampled seqs.
   Campaign counts must likewise be identical across backends, pinned
   here on the historical 300-trial CG campaign. *)

let outcome_str = function
  | Machine.Finished -> "finished"
  | Machine.Trapped m -> "trapped: " ^ m
  | Machine.Budget_exceeded -> "budget"

(* every registry program in three forms: as baked, optimized by the
   full pipeline, hardened by the full pipeline *)
let programs () : (string * Prog.t * int) list =
  List.concat_map
    (fun (a : App.t) ->
      let p = App.program a in
      let m = App.iter_mark a in
      [
        (a.App.name, p, m);
        (a.App.name ^ "@opt:all", Opt.transform Opt.all p, m);
        (a.App.name ^ "@all", Harden.transform Passes.all p, m);
      ])
    Registry.all

(* the compiled side is checked inside the run's scope, on the borrowed
   arena itself *)
let run_both (label : string) (prog : Prog.t) (cfg : Machine.config) =
  let ri = Machine.run prog cfg in
  Compiled.run (Compiled.plan_for prog) cfg @@ fun rc ->
  Alcotest.(check string) (label ^ " outcome")
    (outcome_str ri.Machine.outcome)
    (outcome_str rc.Machine.outcome);
  Alcotest.(check string) (label ^ " output") ri.Machine.output
    rc.Machine.output;
  Alcotest.(check int) (label ^ " instructions") ri.Machine.instructions
    rc.Machine.instructions;
  Alcotest.(check int) (label ^ " iterations") ri.Machine.iterations
    rc.Machine.iterations;
  Alcotest.(check bool) (label ^ " memory") true
    (ri.Machine.mem = rc.Machine.mem)

(* one fault of each kind, at deterministic seqs spread over the run *)
let sample_faults (prog : Prog.t) ~(instructions : int) : Machine.fault list =
  let n = max 2 instructions in
  let at k = k * (n - 1) / 7 in
  let addr = prog.Prog.mem_size / 2 in
  [
    Machine.Flip_write { seq = at 1; bit = 5 };
    Machine.Flip_write { seq = at 6; bit = 62 };
    Machine.Flip_mem { seq = at 3; addr; bit = 17 };
    Machine.Mask_write
      { seq = at 4; and_mask = -1L; or_mask = 0L; xor_mask = 0xF0L };
    Machine.Mask_mem
      {
        seq = at 5;
        addr;
        and_mask = Int64.lognot 0xFFL;
        or_mask = 1L;
        xor_mask = 0L;
      };
  ]

let test_identity_all_programs () =
  List.iter
    (fun (name, prog, iter_mark) ->
      let base = { Machine.default_config with iter_mark } in
      let clean = Machine.run prog base in
      run_both (name ^ " fault-free") prog base;
      let budget = 20 * max 1 clean.Machine.instructions in
      List.iter
        (fun fault ->
          run_both
            (Printf.sprintf "%s %s" name (Machine.fault_to_string fault))
            prog
            { base with fault = Some fault; budget })
        (sample_faults prog ~instructions:clean.Machine.instructions))
    (programs ())

(* the historical 300-trial CG campaign: counts must be identical
   across backends AND equal to the pinned historical numbers *)
let test_campaign_counts_identical () =
  let app = Registry.find "CG" in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let run backend =
    Campaign.run prog ~verify:(App.verify app)
      ~clean_instructions:clean.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some 300 }
      ~exec:{ Campaign.default_exec with backend }
      target
  in
  let ci = run Backend.Interp in
  let cc = run Backend.Compiled in
  Alcotest.(check int) "success equal" ci.Campaign.success cc.Campaign.success;
  Alcotest.(check int) "failed equal" ci.Campaign.failed cc.Campaign.failed;
  Alcotest.(check int) "crashed equal" ci.Campaign.crashed cc.Campaign.crashed;
  Alcotest.(check int) "trials equal" ci.Campaign.trials cc.Campaign.trials;
  (* and both match the numbers pinned since the campaign was first
     recorded — the backend cannot move them *)
  Alcotest.(check int) "success pinned" 122 cc.Campaign.success;
  Alcotest.(check int) "failed pinned" 89 cc.Campaign.failed;
  Alcotest.(check int) "crashed pinned" 89 cc.Campaign.crashed

(* unsupported configurations: Compiled.run refuses, Backend.runner
   falls back to the interpreter so callers never lose functionality *)
let test_fallback () =
  let app = Registry.find "IS" in
  let prog = App.program app in
  Alcotest.check_raises "Compiled.run refuses a traced config"
    (Invalid_argument
       "Compiled.run: config needs the interpreter (trace, sink, MPI hooks, \
        recovery, or a cache fault attached)")
    (fun () ->
      Compiled.run (Compiled.plan_for prog)
        { Machine.default_config with trace = Some (Trace.create ()) }
        ignore);
  Alcotest.(check bool) "supported: plain" true
    (Compiled.supported Machine.default_config);
  Alcotest.(check bool) "supported: traced" false
    (Compiled.supported
       { Machine.default_config with trace = Some (Trace.create ()) });
  Alcotest.(check bool) "supported: recovery" false
    (Compiled.supported
       { Machine.default_config with
         recover = Some Machine.default_recover
       });
  (* the backend switch still produces a trace by falling back *)
  let t = Trace.create () in
  let r =
    Backend.run Backend.Compiled prog
      { Machine.default_config with trace = Some t }
  in
  Alcotest.(check bool) "fallback run finished" true
    (r.Machine.outcome = Machine.Finished);
  Alcotest.(check bool) "fallback produced events" true (Trace.length t > 0)

(* --- ownership and the trial arena ------------------------------------ *)

let is_setup () =
  let app = Registry.find "IS" in
  let prog = App.program app in
  let clean = Machine.run prog Machine.default_config in
  let budget = 20 * clean.Machine.instructions in
  let faulty k =
    {
      Machine.default_config with
      budget;
      fault =
        Some
          (Machine.Flip_write
             { seq = (k * 7919) mod clean.Machine.instructions; bit = k mod 64 });
    }
  in
  (prog, faulty)

(* an owned result survives every later run: the copy is the caller's,
   not the arena the next run (here or on another domain) overwrites *)
let test_runner_result_is_owned () =
  let prog, faulty = is_setup () in
  let run = Backend.runner Backend.Compiled prog in
  let kept = run (faulty 1) in
  let snapshot = Mem.copy kept.Machine.mem in
  Alcotest.(check bool) "equals the interpreter's memory" true
    ((Machine.run prog (faulty 1)).Machine.mem = snapshot);
  for k = 2 to 5 do
    ignore (run (faulty k))
  done;
  Alcotest.(check bool) "unchanged by later runs on this domain" true
    (kept.Machine.mem = snapshot);
  let others =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for k = 6 + (3 * d) to 8 + (3 * d) do
              ignore (run (faulty k))
            done))
  in
  List.iter Domain.join others;
  Alcotest.(check bool) "unchanged by runs on other domains" true
    (kept.Machine.mem = snapshot)

(* an exception escaping the scope (from the continuation, or from the
   tick hook mid-run) still returns the arena, and the next run on that
   arena is bit-identical to the interpreter *)
let test_scope_exception_returns_arena () =
  let prog, faulty = is_setup () in
  let plan = Compiled.plan_for prog in
  Compiled.run plan (faulty 1) ignore;
  let pooled = List.length (Compiled.Private.pooled_arenas ()) in
  Alcotest.check_raises "continuation's exception propagates" Exit (fun () ->
      Compiled.run plan (faulty 2) (fun _ -> raise Exit));
  Alcotest.(check int) "arena returned after the continuation raised" pooled
    (List.length (Compiled.Private.pooled_arenas ()));
  let ticks = ref 0 in
  let stop_mid_run () =
    incr ticks;
    if !ticks = 1000 then raise Exit
  in
  Alcotest.check_raises "tick's exception propagates" Exit (fun () ->
      Compiled.run plan { (faulty 3) with tick = Some stop_mid_run } ignore);
  Alcotest.(check int) "arena returned after a run was cut short" pooled
    (List.length (Compiled.Private.pooled_arenas ()));
  run_both "next run after the exceptions" prog (faulty 4)

(* [main] calls [g] with 3000 registers per frame: 6000 live slots, past
   the arena's initial 4096-slot register stack.  [g] stores a register
   it never writes, which must read 0 — a reused, grown stack must still
   hand every frame zeroed registers. *)
let deep_stack_program () : Prog.t =
  let func fname code =
    {
      Prog.fname;
      nregs = 3000;
      code;
      lines = Array.map (fun _ -> 0) code;
      regions = Array.map (fun _ -> -1) code;
    }
  in
  let main =
    func "main"
      Instr.
        [|
          Const (2998, 99L);
          Call (1, [||], Some 2999);
          Const (0, 2L);
          Store (2999, 0);
          Const (1, 4L);
          Store (2998, 1);
          Ret None;
        |]
  in
  let g =
    func "g"
      Instr.
        [|
          Const (0, 3L);
          Store (2500, 0);
          Const (2500, 5L);
          Const (2999, 7L);
          Const (1, 1L);
          Store (2999, 1);
          Ret (Some 2999);
        |]
  in
  {
    Prog.funcs = [| main; g |];
    entry = 0;
    mem_size = 8;
    init_mem = [];
    region_table = [||];
    mark_names = [||];
    symbols = [];
  }

let test_grown_stack_is_pooled () =
  let prog = deep_stack_program () in
  Prog.validate prog;
  let cfg = Machine.default_config in
  run_both "deep stack, first run" prog cfg;
  let after_first = Compiled.Private.pooled_arenas () in
  Alcotest.(check bool) "a grown stack is in the pool" true
    (List.exists (fun slots -> slots >= 6000) after_first);
  run_both "deep stack, second run" prog cfg;
  Alcotest.(check (list int)) "second run reused it: not regrown, not leaked"
    after_first (Compiled.Private.pooled_arenas ())

(* the plan cache: same program, physically or structurally, yields the
   same plan *)
let test_plan_cache () =
  let prog = App.program (Registry.find "IS") in
  let p1 = Compiled.plan_for prog in
  let p2 = Compiled.plan_for prog in
  Alcotest.(check bool) "physically shared" true (p1 == p2);
  Alcotest.(check bool) "remembers its program" true
    (Compiled.prog p1 == prog)

let suite =
  ( "backend",
    [
      Alcotest.test_case "compiled = interpreter: registry + variants" `Slow
        test_identity_all_programs;
      Alcotest.test_case "campaign counts identical across backends" `Slow
        test_campaign_counts_identical;
      Alcotest.test_case "unsupported configs fall back" `Quick test_fallback;
      Alcotest.test_case "plan cache" `Quick test_plan_cache;
      Alcotest.test_case "runner results are owned" `Quick
        test_runner_result_is_owned;
      Alcotest.test_case "scope exceptions return the arena" `Quick
        test_scope_exception_returns_arena;
      Alcotest.test_case "grown register stack is pooled" `Quick
        test_grown_stack_is_pooled;
    ] )
