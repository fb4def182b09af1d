(** Order statistics of a sample of measurements, computed the way
    Python's [statistics.median] and [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) compute them, so the benchmark's
    own spread figures agree with any external check of its output. *)

type t = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_sorted (a : float array) : float =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: empty sample"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median (xs : float list) : float = median_sorted (sorted xs)

(** The three cut points of [statistics.quantiles(xs, n=4)]; a single
    measurement is its own quartiles (Python refuses fewer than two). *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Summary.quartiles: empty sample"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

let of_list (xs : float list) : t =
  let a = sorted xs in
  let q1, _, q3 = quartiles xs in
  {
    n = Array.length a;
    median = median_sorted a;
    q1;
    q3;
    min = a.(0);
    max = a.(Array.length a - 1);
  }

(** Interquartile range as a share of the median: the run-to-run spread
    a metric's bound is compared against. *)
let spread (s : t) : float =
  if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(** Nearest-rank percentile ([p] in (0, 1]) of an unsorted sample. *)
let percentile (p : float) (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.percentile: empty sample";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let rank = int_of_float (Float.ceil (p *. Float.of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
