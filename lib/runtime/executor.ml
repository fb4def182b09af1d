(** Resilient batch executor: the campaign engine.

    Runs [total] independent, deterministic trials (identified by their
    index) and applies the canonical HPC resilience patterns to the
    experiment infrastructure itself:

    {ul
    {- {e parallelism}: trials fan out over a {!Pool} of OCaml 5
       domains; because a trial depends only on its index, results are
       bit-identical for any worker count;}
    {- {e checkpoint/restart}: every completed trial is journaled
       (csexp, fsync'd once per batch) and [resume] skips journaled
       trials, so a killed campaign restarts where it stopped;}
    {- {e isolation + bounded retry}: a trial that raises is retried
       with bounded exponential backoff and then recorded as
       {!Infra_error} — infrastructure faults are reported separately
       and can never abort the campaign or masquerade as experiment
       outcomes;}
    {- {e graceful degradation}: an optional [should_stop] predicate is
       evaluated at deterministic batch boundaries (e.g. a Wilson
       confidence interval reaching the target margin), and the report
       says honestly how much of the plan ran.}}

    Determinism contract: batches are fixed contiguous index ranges
    [k*batch, (k+1)*batch), and outcomes, the journal and the early-stop
    check all go through a {!Ledger} — the same one the campaign
    server's scheduler uses — so a run with 1 worker, N workers, or a
    kill-and-resume all produce the same outcome sequence. *)

type 'a outcome = 'a Ledger.outcome = Done of 'a | Infra_error of string

type progress = Ledger.progress = {
  completed : int;
  planned : int;
  elapsed_s : float;
  eta_s : float;
}

type config = {
  jobs : int;  (** worker domains; 1 = run inline *)
  batch : int;
      (** journal/fsync/early-stop granularity — fixed boundaries,
          independent of [jobs], to keep runs comparable *)
  journal : string option;
  resume : bool;  (** load the journal and skip completed trials *)
  max_retries : int;  (** retries before a raising trial is Infra_error *)
  retry_backoff_s : float;  (** base of the exponential backoff *)
  retry_jitter : float;
      (** fraction of each backoff step randomized (0 = the historical
          deterministic [base * 2^k]; 0.5 spreads sleeps over
          [0.5x, 1.5x)).  The jitter is a pure function of (trial,
          attempt), so runs stay reproducible, but distinct trials
          de-synchronize — without it, every worker that hit the same
          transient infrastructure fault retries in lockstep and the
          herd thunders again.  Sleeping longer or shorter never
          changes a trial's outcome, so campaign counts are pinned. *)
  on_progress : (progress -> unit) option;
  metrics : Obs.t option;
      (** when set, the engine times its phases (resume, trials,
          journal) and counts trials/retries/infra errors there *)
}

let default_config =
  {
    jobs = 1;
    batch = 64;
    journal = None;
    resume = false;
    max_retries = 2;
    retry_backoff_s = 0.05;
    retry_jitter = 0.5;
    on_progress = None;
    metrics = None;
  }

type 'a spec = 'a Ledger.spec = {
  tag : string;
  total : int;
  run_trial : int -> 'a;
  encode : 'a -> string;
  decode : string -> 'a option;
  should_stop : ('a outcome array -> int -> bool) option;
}

type 'a report = 'a Ledger.report = {
  outcomes : 'a outcome array;
  planned : int;
  completed : int;
  infra_errors : int;
  stopped_early : bool;
  resumed : int;
  wall_s : float;
}

(* splitmix64 finalizer over (trial, attempt) -> uniform in [0, 1):
   deterministic jitter without depending on a shared RNG stream *)
let jitter_unit (idx : int) (attempt : int) : float =
  let z = Int64.of_int (((idx + 1) * 0x9E3779B9) lxor (attempt * 0x85EBCA6B)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

(** The sleep before re-attempt [k] of trial [idx]: exponential base
    with per-(trial, attempt) jitter so synchronized failures don't
    retry in lockstep. *)
let backoff_s (cfg : config) (idx : int) (k : int) : float =
  let step = cfg.retry_backoff_s *. Float.of_int (1 lsl k) in
  let j = Float.max 0.0 (Float.min 1.0 cfg.retry_jitter) in
  step *. (1.0 +. (j *. ((2.0 *. jitter_unit idx k) -. 1.0)))

(** One trial with bounded-exponential-backoff retry.  Exceptions never
    escape: after [max_retries] re-attempts the trial is recorded as
    {!Infra_error} and the campaign goes on. *)
let attempt (cfg : config) (spec : 'a spec) (idx : int) : 'a outcome =
  let rec go k =
    match spec.run_trial idx with
    | v -> Done v
    | exception e ->
        if k >= cfg.max_retries then
          Infra_error (Printf.sprintf "trial %d: %s" idx (Printexc.to_string e))
        else begin
          (match cfg.metrics with
          | Some m -> Obs.count m "executor/retries" 1
          | None -> ());
          if cfg.retry_backoff_s > 0.0 then Unix.sleepf (backoff_s cfg idx k);
          go (k + 1)
        end
  in
  go 0

(** Fixed contiguous batches over a {!Ledger}: each batch's missing
    trials fan out over the domain pool, then the ledger records them
    in index order, fsyncs the journal and asks the early-stop
    predicate at the boundary. *)
let run ?(cfg = default_config) (spec : 'a spec) : 'a report =
  let obs_phase name f =
    match cfg.metrics with Some m -> Obs.phase m name f | None -> f ()
  in
  let obs_count name n =
    match cfg.metrics with Some m -> Obs.count m name n | None -> ()
  in
  let ledger =
    Ledger.create ~journal:(Option.to_list cfg.journal) ~resume:cfg.resume
      ~batch:cfg.batch spec
  in
  if cfg.resume then
    obs_phase "executor/resume" (fun () -> Ledger.open_journal ledger)
  else Ledger.open_journal ledger;
  let rec loop () =
    match Ledger.next_batch ledger with
    | None -> ()
    | Some b ->
        let pending = Ledger.pending ledger b in
        let computed =
          obs_phase "executor/trials" (fun () ->
              Pool.map ~jobs:cfg.jobs (attempt cfg spec) pending)
        in
        let n = Array.length pending in
        obs_count "executor/trials" n;
        Option.iter
          (fun m -> Obs.observe m "executor/batch-pending" n)
          cfg.metrics;
        obs_count "executor/infra-errors"
          (Array.fold_left
             (fun a -> function Infra_error _ -> a + 1 | Done _ -> a)
             0 computed);
        obs_phase "executor/journal" (fun () ->
            Array.iteri
              (fun k i -> ignore (Ledger.fill ledger i computed.(k)))
              pending;
            Ledger.close_batch ledger b);
        Option.iter (fun f -> f (Ledger.progress ledger)) cfg.on_progress;
        loop ()
  in
  loop ();
  Ledger.report ledger
