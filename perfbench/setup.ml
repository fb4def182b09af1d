(** Set-up: everything a user pays before the first trial or the first
    analysis step — resolve and bake the app, run it traced fault-free,
    build the fault target and resolve the compiled plan.

    The program caches the bake and the plan per process, so a second
    set-up in the same process would measure cache hits.  Each extra
    sample is therefore taken in a child forked before any set-up ran,
    and the median over the children and the parent's own set-up is the
    reported [setup_s]. *)

type parts = {
  bake_s : float;  (** [App.program]: calibration build + reference run *)
  trace_s : float;  (** [App.trace]: the traced fault-free run *)
  target_s : float;  (** the fault-site population *)
  plan_s : float;
      (** [Backend.runner Compiled]; on [analysis-cg] also drawing the
          injections with it *)
}

let total (p : parts) = p.bake_s +. p.trace_s +. p.target_s +. p.plan_s

let resolve (name : string) : App.t =
  match Fliptracker.resolve_app name with
  | Ok app -> app
  | Error e -> failwith e

(** Run [f] cold in [k] forked children, each reporting its set-up
    parts over a pipe.  Call before any domain is spawned. *)
let cold_children (k : int) (f : unit -> parts) : parts list =
  List.init k (fun _ ->
      flush_all ();
      let rd, wr = Unix.pipe ~cloexec:true () in
      match Unix.fork () with
      | 0 ->
          Unix.close rd;
          let code =
            match f () with
            | p ->
                let line =
                  Printf.sprintf "%h %h %h %h\n" p.bake_s p.trace_s p.target_s
                    p.plan_s
                in
                ignore (Unix.write_substring wr line 0 (String.length line));
                0
            | exception _ -> 1
          in
          Unix._exit code
      | pid ->
          Unix.close wr;
          let ic = Unix.in_channel_of_descr rd in
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "set-up failed in a forked sample");
          Scanf.sscanf line "%h %h %h %h" (fun bake_s trace_s target_s plan_s ->
              { bake_s; trace_s; target_s; plan_s }))

(** [sampled k f]: [f]'s own result, plus the parts of [k] cold
    children and of the parent's run. *)
let sampled (k : int) (f : unit -> 'a * parts) : 'a * parts list =
  let children = cold_children k (fun () -> snd (f ())) in
  let v, mine = f () in
  (v, mine :: children)

(** The campaign set-up, exactly the pieces {!Server.plan_of_app}
    assembles plus the compiled plan. *)
let campaign (name : string) : Server.plan * parts =
  let app, bake_s = Perfbench.Clock.timed (fun () ->
      let app = resolve name in
      ignore (App.program app);
      app)
  in
  let (clean, trace), trace_s = Perfbench.Clock.timed (fun () -> App.trace app) in
  let prog = App.program app in
  let target, target_s =
    Perfbench.Clock.timed (fun () -> Campaign.whole_program_target prog trace)
  in
  let (_ : Machine.config -> Machine.result), plan_s =
    Perfbench.Clock.timed (fun () -> Backend.runner Backend.Compiled prog)
  in
  ( {
      Server.pl_app = name;
      pl_prog = prog;
      pl_target = target;
      pl_clean_instructions = clean.Machine.instructions;
      pl_golden_output = clean.Machine.output;
    },
    { bake_s; trace_s; target_s; plan_s } )

(** The set-up layers: the median of each part over the samples. *)
let layers (v : Layers.values) (samples : parts list) : unit =
  let median f = Perfbench.Summary.median (List.map f samples) in
  Layers.set v "apps.bake_s" (median (fun p -> p.bake_s));
  Layers.set v "vm.trace_clean_s" (median (fun p -> p.trace_s));
  Layers.set v "faults.target_s" (median (fun p -> p.target_s));
  Layers.set v "vm.plan_compile_s" (median (fun p -> p.plan_s))
