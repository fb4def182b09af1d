(** The trial-outcome ledger: the campaign contract, implemented once.

    Both campaign engines — the in-process {!Executor} (domain batches)
    and the server's lease scheduler (forked and remote workers) — are
    schedulers over a ledger.  The ledger owns what makes their counts
    a pure function of (program, seed, config):

    {ul
    {- the typed outcome table, filled {e first-write-wins} by trial
       index — a resumed journal's duplicate, or a stolen lease's
       re-delivered record, can never replace an outcome;}
    {- the journal: one or more append-only csexp files in the same
       record format, created or healed, validated and replayed through
       {!Shard};}
    {- the completed prefix, advanced incrementally, and the early-stop
       predicate, shown the prefix at each fixed batch boundary in
       order;}
    {- the progress/ETA figure and the final report.}} *)

type 'a outcome = Done of 'a | Infra_error of string

type progress = {
  completed : int;
  planned : int;
  elapsed_s : float;
  eta_s : float;
}

type 'a spec = {
  tag : string;
  total : int;
  run_trial : int -> 'a;
  encode : 'a -> string;
  decode : string -> 'a option;
  should_stop : ('a outcome array -> int -> bool) option;
}

type 'a report = {
  outcomes : 'a outcome array;
  planned : int;
  completed : int;
  infra_errors : int;
  stopped_early : bool;
  resumed : int;
  wall_s : float;
}

(* --- journal records --------------------------------------------------- *)

let magic = "fliptracker-journal"
let version = "1"

let header_record (s : 'a spec) : Csexp.t =
  Csexp.(List [ Atom magic; Atom version; Atom s.tag; Atom (string_of_int s.total) ])

let parse_header (r : Csexp.t) : (string * string * int) option =
  match r with
  | Csexp.(List [ Atom m; Atom version; Atom tag; Atom total ]) when m = magic
    ->
      Option.map (fun n -> (version, tag, n)) (int_of_string_opt total)
  | _ -> None

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

(* --- the ledger -------------------------------------------------------- *)

type 'a t = {
  spec : 'a spec;
  batch : int;
  paths : string list;  (** journal files; [] = no journal *)
  resume : bool;
  outcomes : 'a outcome option array;
  mutable filled : int;
  mutable resumed : int;
  mutable prefix : int;  (** every index below has an outcome *)
  mutable checked : int;  (** batch boundaries shown to [should_stop] *)
  mutable stop_at : int option;
  mutable journal : Shard.t option;
  t0 : float;
}

let create ?(journal = []) ?(resume = false) ~(batch : int) (spec : 'a spec)
    : 'a t =
  if spec.total < 0 then invalid_arg "Ledger.create: negative total";
  {
    spec;
    batch = max 1 batch;
    paths = journal;
    resume;
    outcomes = Array.make spec.total None;
    filled = 0;
    resumed = 0;
    prefix = 0;
    checked = 0;
    stop_at = None;
    journal = None;
    t0 = Unix.gettimeofday ();
  }

(* first write wins; [record] is built only when a journal is open *)
let keep (l : 'a t) (i : int) (o : 'a outcome) (record : unit -> Csexp.t) :
    bool =
  i >= 0 && i < l.spec.total && Option.is_none l.outcomes.(i)
  && begin
       l.outcomes.(i) <- Some o;
       l.filled <- l.filled + 1;
       Option.iter
         (fun sh -> Shard.append sh ~shard:(i / l.batch) (record ()))
         l.journal;
       true
     end

let fill (l : 'a t) (i : int) (o : 'a outcome) : bool =
  keep l i o (fun () -> trial_record l.spec.encode i o)

let accept (l : 'a t) (r : Csexp.t) : bool =
  match parse_trial l.spec.decode r with
  | Some (i, o) -> keep l i o (fun () -> r)
  | None -> false

let boundary (l : 'a t) (k : int) = min l.spec.total ((k + 1) * l.batch)

(* move the prefix over filled indices, then show the predicate every
   batch boundary the prefix has reached, in order, until it fires *)
let advance (l : 'a t) : unit =
  while l.prefix < l.spec.total && Option.is_some l.outcomes.(l.prefix) do
    l.prefix <- l.prefix + 1
  done;
  match l.spec.should_stop with
  | None -> ()
  | Some p ->
      while
        l.stop_at = None
        && l.checked * l.batch < l.spec.total
        && boundary l l.checked <= l.prefix
      do
        let n = boundary l l.checked in
        l.checked <- l.checked + 1;
        if p (Array.init n (fun i -> Option.get l.outcomes.(i))) n then
          l.stop_at <- Some n
      done

let describe_header (h : Csexp.t) : string =
  match parse_header h with
  | Some (_, tag, total) -> Printf.sprintf "campaign %S of %d trials" tag total
  | None -> Csexp.to_string h

let open_journal (l : 'a t) : unit =
  (match l.paths with
  | [] -> ()
  | paths ->
      let header = header_record l.spec in
      let sh, records =
        if not l.resume then (Shard.create paths ~header, [])
        else
          try Shard.open_resume paths ~header
          with Shard.Header_mismatch { shard; found } ->
            failwith
              (Printf.sprintf
                 "journal %s belongs to a different campaign (found %s, \
                  expected %s); refusing to resume"
                 shard (describe_header found) (describe_header header))
      in
      (* replay before attaching the writer: resumed records are not
         re-journaled *)
      List.iter
        (fun r -> if accept l r then l.resumed <- l.resumed + 1)
        records;
      l.journal <- Some sh);
  advance l

let next_batch (l : 'a t) : int option =
  if l.stop_at <> None || l.prefix >= l.spec.total then None
  else Some (l.prefix / l.batch)

let pending (l : 'a t) (b : int) : int array =
  let lo = b * l.batch in
  Array.of_seq
    (Seq.filter
       (fun i -> Option.is_none l.outcomes.(i))
       (Seq.init (boundary l b - lo) (fun k -> lo + k)))

let close_batch (l : 'a t) (b : int) : unit =
  Option.iter (fun sh -> Shard.sync sh ~shard:b) l.journal;
  advance l

let progress (l : 'a t) : progress =
  let elapsed_s = Unix.gettimeofday () -. l.t0 in
  let fresh = l.filled - l.resumed in
  let eta_s =
    if fresh <= 0 then 0.0
    else
      elapsed_s /. Float.of_int fresh *. Float.of_int (l.spec.total - l.filled)
  in
  { completed = l.filled; planned = l.spec.total; elapsed_s; eta_s }

let close (l : 'a t) : unit =
  Option.iter Shard.close l.journal;
  l.journal <- None

let report (l : 'a t) : 'a report =
  close l;
  let completed = Option.value l.stop_at ~default:l.prefix in
  let outcomes = Array.init completed (fun i -> Option.get l.outcomes.(i)) in
  {
    outcomes;
    planned = l.spec.total;
    completed;
    infra_errors =
      Array.fold_left
        (fun a -> function Infra_error _ -> a + 1 | Done _ -> a)
        0 outcomes;
    stopped_early = l.stop_at <> None;
    resumed = l.resumed;
    wall_s = Unix.gettimeofday () -. l.t0;
  }

(* --- the type-erased view ---------------------------------------------- *)

type erased = {
  total : int;
  batch : int;
  open_journal : unit -> unit;
  filled : int -> bool;
  accept : Csexp.t -> bool;
  close_batch : int -> unit;
  recorded : unit -> int;
  stopped : unit -> bool;
  close : unit -> unit;
}

let erase (l : 'a t) : erased =
  {
    total = l.spec.total;
    batch = l.batch;
    open_journal = (fun () -> open_journal l);
    filled = (fun i -> Option.is_some l.outcomes.(i));
    accept = accept l;
    close_batch = close_batch l;
    recorded = (fun () -> l.filled);
    stopped = (fun () -> l.stop_at <> None);
    close = (fun () -> close l);
  }
