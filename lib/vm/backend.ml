(** Execution-backend selection.

    One switch for everything that runs programs without looking at
    traces: campaigns, the campaign server's workers, resilience
    reports.  [Compiled] is the default — it is bit-identical to the
    interpreter wherever it applies and several times faster per
    trial — and it degrades to the interpreter {e per run} whenever a
    configuration needs interpreter-only machinery (tracing, sinks,
    MPI hooks, checkpoint/rollback), so callers can pick a backend
    once and attach a trace or recovery policy later without breaking
    anything. *)

type t = Interp | Compiled

let default = Compiled
let names = [ "interp"; "compiled" ]

let to_string = function Interp -> "interp" | Compiled -> "compiled"

let of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

let scoped (t : t) (prog : Prog.t) :
    Machine.config -> (Machine.result -> 'a) -> 'a =
  match t with
  | Interp -> fun cfg k -> k (Machine.run prog cfg)
  | Compiled ->
      (* compile (or fetch) the plan now, once, so callers can resolve
         the runner before fanning trials out to domains or forked
         workers; the per-run supported check keeps the fallback
         explicit and exact *)
      let plan = Compiled.plan_for prog in
      fun cfg k ->
        if Compiled.supported cfg then Compiled.run plan cfg k
        else k (Machine.run prog cfg)

let runner (t : t) (prog : Prog.t) : Machine.config -> Machine.result =
  match t with
  | Interp -> Machine.run prog
  | Compiled ->
      let run = scoped t prog in
      fun cfg -> run cfg (fun r -> { r with Machine.mem = Mem.copy r.Machine.mem })

let run (t : t) (prog : Prog.t) (cfg : Machine.config) : Machine.result =
  runner t prog cfg
