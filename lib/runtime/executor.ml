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
    [k*batch, (k+1)*batch), outcomes are accumulated in index order,
    and [should_stop] only sees completed prefixes — so a run with 1
    worker, N workers, or a kill-and-resume all produce the same
    outcome sequence. *)

type 'a outcome = Done of 'a | Infra_error of string

type progress = {
  completed : int;
  planned : int;
  elapsed_s : float;
  eta_s : float;  (** from this run's own throughput; 0 when unknown *)
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

type 'a spec = {
  tag : string;
      (** campaign identity; a resumed journal must carry the same tag *)
  total : int;
  run_trial : int -> 'a;
      (** deterministic in the index; exceptions are retried and then
          classified as {!Infra_error} *)
  encode : 'a -> string;
  decode : string -> 'a option;
  should_stop : ('a outcome array -> int -> bool) option;
      (** [should_stop outcomes n]: outcomes [0..n-1] are complete;
          return true to stop after this batch *)
}

type 'a report = {
  outcomes : 'a outcome array;  (** the completed prefix, in index order *)
  planned : int;
  completed : int;
  infra_errors : int;
  stopped_early : bool;
  resumed : int;  (** trials taken from the journal, not re-run *)
  wall_s : float;
}

(* --- journal records --------------------------------------------------- *)

let magic = "fliptracker-journal"
let version = "1"

let header_record (s : 'a spec) : Csexp.t =
  Csexp.(List [ Atom magic; Atom version; Atom s.tag; Atom (string_of_int s.total) ])

let trial_record (encode : 'a -> string) (idx : int) (o : 'a outcome) : Csexp.t =
  let open Csexp in
  match o with
  | Done v -> List [ Atom "t"; Atom (string_of_int idx); Atom "ok"; Atom (encode v) ]
  | Infra_error m -> List [ Atom "t"; Atom (string_of_int idx); Atom "err"; Atom m ]

let parse_trial (decode : string -> 'a option) (r : Csexp.t) :
    (int * 'a outcome) option =
  let open Csexp in
  match r with
  | List [ Atom "t"; Atom idx; Atom "ok"; Atom payload ] -> (
      match (int_of_string_opt idx, decode payload) with
      | Some i, Some v -> Some (i, Done v)
      | _, _ -> None)
  | List [ Atom "t"; Atom idx; Atom "err"; Atom m ] ->
      Option.map (fun i -> (i, Infra_error m)) (int_of_string_opt idx)
  | _ -> None

(** Load a resumable journal: validated header + the journaled
    outcomes + the byte offset of the valid prefix (for healing a torn
    tail).  @raise Failure when the journal belongs to a different
    campaign (tag or plan size mismatch) or has no valid header. *)
let load_journal (spec : 'a spec) (path : string) :
    (int, 'a outcome) Hashtbl.t * int =
  let records, valid_end = Journal.load path in
  let seen = Hashtbl.create 256 in
  (match records with
  | [] -> ()
  | Csexp.List [ Csexp.Atom m; Csexp.Atom _; Csexp.Atom tag; Csexp.Atom total ]
    :: rest
    when String.equal m magic ->
      if not (String.equal tag spec.tag) then
        failwith
          (Printf.sprintf
             "journal %s belongs to a different campaign (journal tag %S, \
              expected %S); refusing to resume"
             path tag spec.tag);
      if int_of_string_opt total <> Some spec.total then
        failwith
          (Printf.sprintf
             "journal %s plans %s trials but this campaign plans %d; refusing \
              to resume"
             path total spec.total);
      List.iter
        (fun r ->
          match parse_trial spec.decode r with
          | Some (i, o) when i >= 0 && i < spec.total -> Hashtbl.replace seen i o
          | Some _ | None -> ())
        rest
  | _ ->
      failwith
        (Printf.sprintf "journal %s has no valid header; refusing to resume"
           path));
  (seen, valid_end)

(* --- the engine -------------------------------------------------------- *)

(** The spec's early-stop predicate on batch boundaries over an outcome
    table: asked about boundary [n], it shows the predicate the
    completed prefix [0..n-1], in index order.  Shared by this engine
    and the campaign server's scheduler. *)
let boundary_stop (spec : 'a spec) (outcomes : 'a outcome option array) :
    (int -> bool) option =
  Option.map
    (fun p n ->
      let prefix =
        Array.init n (fun i ->
            match outcomes.(i) with
            | Some o -> o
            | None -> invalid_arg "Executor.boundary_stop: unfilled prefix")
      in
      p prefix n)
    spec.should_stop

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

let run ?(cfg = default_config) (spec : 'a spec) : 'a report =
  if spec.total < 0 then invalid_arg "Executor.run: negative total";
  let obs_phase name f =
    match cfg.metrics with Some m -> Obs.phase m name f | None -> f ()
  in
  let obs_count name n =
    match cfg.metrics with Some m -> Obs.count m name n | None -> ()
  in
  let obs_observe name v =
    match cfg.metrics with Some m -> Obs.observe m name v | None -> ()
  in
  let t0 = Unix.gettimeofday () in
  let batch = max 1 cfg.batch in
  (* checkpoint state: what the journal already knows *)
  let journaled, writer =
    match cfg.journal with
    | None -> (Hashtbl.create 0, None)
    | Some path ->
        if cfg.resume && Sys.file_exists path then begin
          let seen, valid_end =
            obs_phase "executor/resume" (fun () -> load_journal spec path)
          in
          let w = Journal.open_append ~truncate_at:valid_end path in
          (* a tail torn inside the header heals to an empty journal;
             re-write the header so the healed file stays resumable *)
          if valid_end = 0 then begin
            Journal.write w (header_record spec);
            Journal.sync w
          end;
          (seen, Some w)
        end
        else begin
          let w = Journal.create path in
          Journal.write w (header_record spec);
          Journal.sync w;
          (Hashtbl.create 0, Some w)
        end
  in
  let resumed = Hashtbl.length journaled in
  let outcomes : 'a outcome option array = Array.make spec.total None in
  Hashtbl.iter (fun i o -> outcomes.(i) <- Some o) journaled;
  let should_stop = boundary_stop spec outcomes in
  let completed = ref 0 in
  let fresh = ref 0 in
  let stopped = ref false in
  (* fixed contiguous batches: the determinism and resume anchor *)
  while !completed < spec.total && not !stopped do
    let lo = !completed in
    let hi = min spec.total (lo + batch) in
    let pending =
      Array.of_seq
        (Seq.filter
           (fun i -> Option.is_none outcomes.(i))
           (Seq.init (hi - lo) (fun k -> lo + k)))
    in
    let computed =
      obs_phase "executor/trials" (fun () ->
          Pool.map ~jobs:cfg.jobs (attempt cfg spec) pending)
    in
    Array.iteri (fun k i -> outcomes.(i) <- Some computed.(k)) pending;
    fresh := !fresh + Array.length pending;
    obs_count "executor/trials" (Array.length pending);
    obs_observe "executor/batch-pending" (Array.length pending);
    obs_count "executor/infra-errors"
      (Array.fold_left
         (fun a -> function Infra_error _ -> a + 1 | Done _ -> a)
         0 computed);
    (match writer with
    | Some w ->
        obs_phase "executor/journal" (fun () ->
            Array.iteri
              (fun k i ->
                Journal.write w (trial_record spec.encode i computed.(k)))
              pending;
            Journal.sync w)
    | None -> ());
    completed := hi;
    (match cfg.on_progress with
    | Some f ->
        let elapsed_s = Unix.gettimeofday () -. t0 in
        let eta_s =
          if !fresh = 0 then 0.0
          else
            elapsed_s /. Float.of_int !fresh
            *. Float.of_int (spec.total - !completed)
        in
        f { completed = !completed; planned = spec.total; elapsed_s; eta_s }
    | None -> ());
    match should_stop with
    | Some p -> if p !completed then stopped := true
    | None -> ()
  done;
  Option.iter Journal.close writer;
  let final =
    Array.init !completed (fun i ->
        match outcomes.(i) with Some o -> o | None -> assert false)
  in
  let infra_errors =
    Array.fold_left
      (fun a -> function Infra_error _ -> a + 1 | Done _ -> a)
      0 final
  in
  {
    outcomes = final;
    planned = spec.total;
    completed = !completed;
    infra_errors;
    stopped_early = !stopped;
    resumed;
    wall_s = Unix.gettimeofday () -. t0;
  }
