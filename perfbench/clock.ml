(** Monotonic time in seconds (CLOCK_MONOTONIC, immune to wall-clock
    steps), the one clock every benchmark timing reads. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [f ()] and its duration in seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
