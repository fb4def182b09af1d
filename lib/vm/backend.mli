(** Execution-backend selection: the interpreter ({!Machine.run}) or
    the closure-compiled backend ({!Compiled}), with automatic per-run
    fallback to the interpreter for configurations the compiled
    backend does not support (tracing, sinks, MPI hooks, recovery). *)

type t = Interp | Compiled

val default : t
(** [Compiled]: bit-identical where it applies, faster everywhere a
    campaign spends time. *)

val names : string list
(** Accepted spellings, for CLI converters: ["interp"; "compiled"]. *)

val to_string : t -> string
val of_string : string -> t option

val scoped : t -> Prog.t -> Machine.config -> (Machine.result -> 'a) -> 'a
(** [scoped t prog] resolves the execution function once — for
    [Compiled] this compiles (or fetches the cached) plan eagerly, so
    call it before fanning out to domains or forked workers.  The
    returned function runs one config and passes the result to its
    continuation.  Under [Compiled] the result's [mem] is the borrowed
    trial arena of {!Compiled.run}: valid only inside the
    continuation, which must not retain it.  Falls back to the
    interpreter per run when the config is outside the compiled
    envelope. *)

val runner : t -> Prog.t -> Machine.config -> Machine.result
(** {!scoped} with an owning continuation: the returned result's
    memory belongs to the caller (the compiled backend copies it out of
    its arena).  Resolve it before fanning out, as for {!scoped}. *)

val run : t -> Prog.t -> Machine.config -> Machine.result
(** One-shot convenience for [runner t prog cfg]. *)
