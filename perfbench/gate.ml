(** The benchmark's correctness gate: every check that fails is kept,
    and a run with any failure ends in a nonzero exit, never in a
    warning that lets the numbers through. *)

type t = { mutable failures : string list; mutable checks : int }

let create () : t = { failures = []; checks = 0 }

let check (g : t) (ok : bool) (what : string) : unit =
  g.checks <- g.checks + 1;
  if not ok then g.failures <- what :: g.failures

let failures (g : t) : string list = List.rev g.failures
let passed (g : t) : bool = g.failures = []

(** The wire encoding the campaign determinism contract is stated in. *)
let counts_bytes (c : Campaign.counts) : string =
  Csexp.to_string (Campaign.counts_to_csexp c)

(** Campaign counts must be byte-identical in their csexp encoding. *)
let same_counts (g : t) ~(what : string) ~(expected : Campaign.counts)
    ~(actual : Campaign.counts) : unit =
  let e = counts_bytes expected and a = counts_bytes actual in
  check g (String.equal e a)
    (Printf.sprintf "%s: counts %s, expected %s" what a e)
