(* The campaign server: wire framing (fail-stop checksums, deadlines),
   the content-addressed cache, the infra taxonomy, protocol codecs,
   sharded journals, the ledger's one duplicate rule across both
   journal layouts, and the core crash-tolerance contract — a campaign
   whose workers are SIGKILLed mid-flight, or corrupt their wire,
   produces counts byte-identical to --jobs 1. *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ft-server-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

(* --- wire ---------------------------------------------------------------- *)

let msg s = Csexp.List [ Csexp.Atom "m"; Csexp.Atom s ]

let test_wire_roundtrip () =
  let a, b = Wire.pair () in
  let sent = List.init 20 (fun i -> msg (string_of_int i)) in
  List.iter (Wire.send a) sent;
  let got = List.map (fun _ -> Wire.recv b ~timeout_s:2.0) sent in
  Alcotest.(check bool) "all frames in order" true (got = sent);
  Wire.close a;
  Wire.close b

(* A frame as the wire writes it: [(f <checksum> <payload>)] *)
let raw_frame ?(sum = Wire.checksum) m =
  let payload = Csexp.to_string m in
  Csexp.to_string
    (Csexp.List
       [ Csexp.Atom "f"; Csexp.Atom (Int64.to_string (sum payload));
         Csexp.Atom payload ])

let write_raw conn s =
  ignore (Unix.write_substring (Wire.fd conn) s 0 (String.length s))

let test_wire_corrupt_frame_fails_stop () =
  (* the socket is reliable, so a broken frame means a broken peer:
     recv raises Corrupt (the scheduler's cue to kill and steal) rather
     than resynchronizing *)
  let expect_corrupt what bytes =
    let a, b = Wire.pair () in
    Wire.send a (msg "before");
    write_raw a bytes;
    Alcotest.(check bool) (what ^ ": earlier frames still deliver") true
      (Wire.recv b ~timeout_s:2.0 = msg "before");
    (match Wire.recv b ~timeout_s:2.0 with
    | _ -> Alcotest.fail (what ^ ": expected Corrupt")
    | exception Wire.Corrupt _ -> ());
    Wire.close a;
    Wire.close b
  in
  expect_corrupt "checksum mismatch"
    (raw_frame ~sum:(fun p -> Int64.succ (Wire.checksum p)) (msg "fragile"));
  let flipped = Bytes.of_string (raw_frame (msg "fragile")) in
  let i = Bytes.length flipped - 3 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  expect_corrupt "flipped payload byte" (Bytes.to_string flipped);
  expect_corrupt "unframed bytes" "garbage";
  expect_corrupt "not a frame" (Csexp.to_string (msg "bare"))

let test_wire_recv_deadline () =
  let a, b = Wire.pair () in
  (match Wire.recv b ~timeout_s:0.05 with
  | _ -> Alcotest.fail "expected Timeout"
  | exception Wire.Timeout _ -> ());
  Wire.close a;
  Wire.close b

let test_wire_closed_peer () =
  let a, b = Wire.pair () in
  Wire.close a;
  match Wire.recv b ~timeout_s:1.0 with
  | _ -> Alcotest.fail "expected Closed"
  | exception Wire.Closed -> Wire.close b

(* --- cache --------------------------------------------------------------- *)

let test_cache_roundtrip_and_corruption () =
  with_temp_dir (fun dir ->
      let key = Cache.key "plan:v1:IS" in
      let v = (42, "golden", [| 1.5; 2.5 |]) in
      let path = Cache.store ~dir ~key v in
      Alcotest.(check bool) "loads back" true
        (Cache.load ~dir ~key = Some v);
      Alcotest.(check bool) "listed" true (Cache.entries dir = [ key ]);
      (* flip a payload byte: the checksum must reject the entry, not
         crash or hand back a silently different value *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check bool) "corrupt entry loads as None" true
        ((Cache.load ~dir ~key : (int * string * float array) option) = None);
      Alcotest.(check bool) "missing key is None" true
        ((Cache.load ~dir ~key:"0000000000000000" : int option) = None))

(* --- infra taxonomy ------------------------------------------------------ *)

let test_infra_kinds_roundtrip () =
  let causes =
    [
      Infra.Trial_raised { idx = 3; message = "boom" };
      Infra.Worker_lost { pid = 123; batch = Some 7 };
      Infra.Lease_expired { batch = 7; pid = 123; heartbeat_s = 5.0 };
      Infra.Wire_fault { message = "unframed bytes" };
      Infra.Load_failed { cid = "c0003-aabbccddee"; reason = "no such app" };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check string)
        (Infra.to_message c) (Infra.kind c)
        (Infra.kind_of_message (Infra.to_message c)))
    causes;
  (* pre-taxonomy executor messages classify as trial failures *)
  Alcotest.(check string) "legacy executor message" "trial"
    (Infra.kind_of_message "trial 17: Failure(\"flaky\")");
  Alcotest.(check string) "garbage" "unknown" (Infra.kind_of_message "whatever")

(* --- protocol codecs ----------------------------------------------------- *)

let test_proto_roundtrips () =
  let specs =
    [
      Campaign.default_spec;
      {
        Campaign.sp_app = "CG@all";
        sp_seed = 7;
        sp_trials = None;
        sp_model = Fault_model.Single_bit;
        sp_recovery = Campaign.Rollback { max_restores = 2 };
        sp_structure = Structure.Reg;
      };
    ]
  in
  List.iter
    (fun s ->
      match Campaign.spec_of_csexp (Campaign.spec_to_csexp s) with
      | Ok s' -> Alcotest.(check bool) "spec roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  let counts =
    { Campaign.success = 3; failed = 1; crashed = 4; recovered = 1; trials = 9;
      infra = 2 }
  in
  (match Campaign.counts_of_csexp (Campaign.counts_to_csexp counts) with
  | Ok c -> Alcotest.(check bool) "counts roundtrip" true (c = counts)
  | Error e -> Alcotest.fail e);
  let client_msgs =
    [
      Proto.Submit { spec = Campaign.default_spec; resume_id = None };
      Proto.Submit
        { spec = Campaign.default_spec; resume_id = Some "c0002-1a2b3c4d5e" };
      Proto.Status;
      Proto.Fetch { id = "c0000-0011223344" };
      Proto.Watch { id = "c0001-5566778899" };
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun m ->
      match Proto.client_of_csexp (Proto.client_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "client msg" true (m = m')
      | Error e -> Alcotest.fail e)
    client_msgs;
  let tenants =
    [
      { Proto.tn_id = "c0000-0011223344"; tn_app = "IS"; tn_state = "done";
        tn_completed = 48; tn_planned = 48; tn_leases = 0; tn_steals = 1 };
      { Proto.tn_id = "c0001-5566778899"; tn_app = "CG@all";
        tn_state = "active"; tn_completed = 5; tn_planned = 96; tn_leases = 2;
        tn_steals = 0 };
    ]
  in
  let server_msgs =
    [
      Proto.Accepted { id = "c0000-0011223344" };
      Proto.Rejected { reason = "busy" };
      Proto.Progress
        { id = "c0000-0011223344"; completed = 5; planned = 10; stolen = 1 };
      Proto.Result { id = "c0000-0011223344"; counts };
      Proto.Poisoned { id = "c0000-0011223344"; reason = "batch 3 kept dying" };
      Proto.Queued_reply { id = "c0002-1a2b3c4d5e"; position = 3 };
      Proto.Status_reply
        { Proto.st_state = "running"; st_completed = 5; st_planned = 10;
          st_campaigns = 2; st_queued = 1; st_active = 2; st_workers = 4;
          st_tenants = tenants };
      Proto.Status_reply
        { Proto.st_state = "idle"; st_completed = 0; st_planned = 0;
          st_campaigns = 0; st_queued = 0; st_active = 0; st_workers = 2;
          st_tenants = [] };
      Proto.Bye;
    ]
  in
  List.iter
    (fun m ->
      match Proto.server_of_csexp (Proto.server_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "server msg" true (m = m')
      | Error e -> Alcotest.fail e)
    server_msgs;
  let worker_msgs =
    [
      Proto.Ready { pid = 42 };
      Proto.Loaded { cid = "c0000-0011223344" };
      Proto.Load_failed { cid = "c0000-0011223344"; reason = "no such app" };
      Proto.Heartbeat { idx = 17 };
      Proto.Trial
        {
          cid = "c0000-0011223344";
          record = Ledger.trial_record string_of_int 3 (Executor.Done 99);
        };
      Proto.Batch_done { cid = "c0000-0011223344"; batch = 2; retries = 1 };
    ]
  in
  List.iter
    (fun m ->
      match Proto.from_worker_of_csexp (Proto.from_worker_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "worker msg" true (m = m')
      | Error e -> Alcotest.fail e)
    worker_msgs;
  List.iter
    (fun m ->
      match Proto.to_worker_of_csexp (Proto.to_worker_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "to-worker msg" true (m = m')
      | Error e -> Alcotest.fail e)
    [
      Proto.Load { cid = "c0000-0011223344"; spec = Campaign.default_spec };
      Proto.Lease { cid = "c0000-0011223344"; batch = 0; lo = 0; hi = 16 };
      Proto.Quit;
    ]

(* --- shard journals ------------------------------------------------------ *)

let header = Csexp.List [ Csexp.Atom "hdr"; Csexp.Atom "campaign-x" ]
let rec_of i = Ledger.trial_record string_of_int i (Executor.Done (i * i))

let test_shard_torn_tails_heal_per_shard () =
  with_temp_dir (fun dir ->
      let paths = Shard.shard_paths ~dir ~shards:3 in
      let sh = Shard.create paths ~header in
      for i = 0 to 29 do
        Shard.append sh ~shard:(i / 10) (rec_of i)
      done;
      Shard.close sh;
      (* tear the tail of shard 1 only *)
      let path1 = List.nth paths 1 in
      let size = (Unix.stat path1).Unix.st_size in
      let fd = Unix.openfile path1 [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let sh, records = Shard.open_resume paths ~header in
      Shard.close sh;
      let parsed = List.filter_map (Ledger.parse_trial int_of_string_opt) records in
      let indices = List.map fst parsed |> List.sort compare in
      (* exactly one record (shard 1's torn last) was dropped *)
      Alcotest.(check int) "one record lost to the tear" 29 (List.length parsed);
      Alcotest.(check bool) "shard 0 and 2 intact" true
        (List.for_all (fun i -> List.mem i indices)
           (List.init 10 Fun.id @ List.init 10 (fun i -> 20 + i)));
      List.iter
        (fun (i, o) ->
          Alcotest.(check bool) "payload survives" true
            (o = Executor.Done (i * i)))
        parsed)

let test_shard_header_mismatch_refuses () =
  with_temp_dir (fun dir ->
      let paths = Shard.shard_paths ~dir ~shards:2 in
      Shard.close (Shard.create paths ~header);
      let other = Csexp.List [ Csexp.Atom "hdr"; Csexp.Atom "campaign-y" ] in
      match Shard.open_resume paths ~header:other with
      | _ -> Alcotest.fail "expected Header_mismatch"
      | exception Shard.Header_mismatch _ -> ())

(* --- the server engine --------------------------------------------------- *)

let pure_trial i = (i * 2654435761) land 0xFFFF

let spec ?(total = 48) ?(tag = "server-test:v1") run_trial =
  {
    Executor.tag;
    total;
    run_trial;
    encode = string_of_int;
    decode = int_of_string_opt;
    should_stop = None;
  }

let outcomes_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let test_server_matches_executor () =
  let s = spec pure_trial in
  let reference = Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s in
  let report =
    Server.run
      ~cfg:{ Server.default_config with Server.workers = 3; batch = 8 }
      s
  in
  Alcotest.(check int) "all trials ran" 48 report.Executor.completed;
  Alcotest.(check bool) "identical outcome sequence" true
    (outcomes_equal reference.Executor.outcomes report.Executor.outcomes)

let test_server_chaos_kills_preserve_outcomes () =
  (* one batch spanning the whole campaign and a 1 ms pause per trial:
     each SIGKILL is guaranteed to land while ~dozens of trials are
     still outstanding on the dead worker's lease, so the lease MUST be
     stolen and finished by a replacement *)
  let slow_trial i = Unix.sleepf 0.001; pure_trial i in
  let reference =
    Executor.run
      ~cfg:{ Executor.default_config with jobs = 1 }
      (spec ~total:60 pure_trial)
  in
  let obs = Obs.create () in
  let report =
    Server.run
      ~cfg:
        {
          Server.default_config with
          Server.workers = 2;
          batch = 60;
          chaos_kills = [ 10; 35 ];
          heartbeat_s = 10.0;
          metrics = Some obs;
        }
      (spec ~total:60 slow_trial)
  in
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "both chaos kills fired" 2 (counter "server/chaos-kills");
  Alcotest.(check int) "both leases were stolen" 2
    (counter "server/leases-stolen");
  Alcotest.(check bool) "replacements were forked" true
    (counter "server/workers-forked" > 2);
  Alcotest.(check int) "all trials ran" 60 report.Executor.completed;
  Alcotest.(check bool) "SIGKILLs cannot change the outcome sequence" true
    (outcomes_equal reference.Executor.outcomes report.Executor.outcomes)

let test_server_kill_at_batch_boundary () =
  (* the worker dies after delivering the LAST trial record of the only
     batch but before Batch_done ([chaos_stall_done_s] holds it in that
     window until its heartbeat deadline expires): every record arrived,
     so the stolen lease has nothing left to compute and the batch can
     only close in the scheduler's assign path.  The completed prefix
     must still advance to the full total — a stale prefix here silently
     truncates report.outcomes (regression test for exactly that bug) *)
  let reference =
    Executor.run
      ~cfg:{ Executor.default_config with jobs = 1 }
      (spec ~total:16 pure_trial)
  in
  let obs = Obs.create () in
  let report =
    Server.run
      ~cfg:
        {
          Server.default_config with
          Server.workers = 1;
          batch = 16;
          chaos_stall_done_s = 5.0;
          heartbeat_s = 0.3;
          metrics = Some obs;
        }
      (spec ~total:16 pure_trial)
  in
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "the stalled heartbeat was missed" 1
    (counter "server/heartbeats-missed");
  Alcotest.(check int) "the orphaned lease was stolen" 1
    (counter "server/leases-stolen");
  Alcotest.(check int) "completed covers the whole campaign" 16
    report.Executor.completed;
  Alcotest.(check bool) "identical outcome sequence" true
    (outcomes_equal reference.Executor.outcomes report.Executor.outcomes)

let test_server_journal_resume () =
  with_temp_dir (fun dir ->
      let jdir = Filename.concat dir "journal" in
      let s = spec ~total:40 pure_trial in
      let cfg kills resume =
        {
          Server.default_config with
          Server.workers = 2;
          batch = 5;
          shards = 2;
          journal_dir = Some jdir;
          resume;
          chaos_kills = kills;
          heartbeat_s = 10.0;
        }
      in
      let first = Server.run ~cfg:(cfg [ 12 ] false) s in
      Alcotest.(check int) "first run completed" 40 first.Executor.completed;
      (* tear one shard's tail, as a crashed server would leave it *)
      let path0 = List.nth (Shard.shard_paths ~dir:jdir ~shards:2) 0 in
      let size = (Unix.stat path0).Unix.st_size in
      let fd = Unix.openfile path0 [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      let calls = ref 0 in
      let counted i = incr calls; pure_trial i in
      let second = Server.run ~cfg:(cfg [] true) (spec ~total:40 counted) in
      Alcotest.(check bool) "most trials resumed from the journal" true
        (second.Executor.resumed >= 35);
      Alcotest.(check bool) "only missing trials re-ran" true
        (!calls <= 40 - second.Executor.resumed + 5);
      Alcotest.(check bool) "resumed run agrees with the first" true
        (outcomes_equal first.Executor.outcomes second.Executor.outcomes))

let test_server_poisons_unrunnable_campaign () =
  (* every worker that leases batch 0 stalls without heartbeating: the
     lease expires, the thief stalls too, and the campaign must be
     refused as infrastructure-broken rather than hang or fabricate *)
  let stall i = if i < 4 then Unix.sleep 30 else ();
    pure_trial i
  in
  let obs = Obs.create () in
  match
    Server.run
      ~cfg:
        {
          Server.default_config with
          Server.workers = 2;
          batch = 4;
          heartbeat_s = 0.3;
          max_lease_attempts = 1;
          metrics = Some obs;
        }
      (spec ~total:8 stall)
  with
  | _ -> Alcotest.fail "expected Campaign_poisoned"
  | exception Infra.Campaign_poisoned { batch; attempts; cause } ->
      Alcotest.(check int) "the stalling batch" 0 batch;
      Alcotest.(check bool) "after repeated lease attempts" true (attempts >= 2);
      Alcotest.(check string) "classified as a lease expiry" "lease-expired"
        (Infra.kind cause);
      Alcotest.(check bool) "heartbeat misses were counted" true
        (Option.value ~default:0 (Obs.counter_value obs "server/heartbeats-missed")
         >= 2)

(* --- the multi-tenant scheduler ------------------------------------------ *)

(* A tenant's job over its typed ledger, without a journal.  Closure
   specs ([jb_spec = None]) run only on workers forked with the
   campaign preloaded (closure kernels cannot travel on a wire). *)
let tenant_job ?jb_spec ~batch cid s =
  let ledger = Ledger.create ~batch s in
  ( { Sched.jb_id = cid; jb_app = s.Executor.tag; jb_spec;
      jb_ledger = Ledger.erase ledger },
    ledger )

let reference_outcomes s =
  (Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s)
    .Executor.outcomes

let final_outcomes ledger = (Ledger.report ledger).Executor.outcomes

let test_sched_multi_tenant_interleaving () =
  (* three campaigns interleaved on one pool of two workers, chaos
     SIGKILLs landing mid-flight, max_active 2 so the third queues:
     every tenant's outcome sequence must equal its own --jobs 1 run *)
  let mk tag total = spec ~total ~tag (fun i -> Unix.sleepf 0.001; pure_trial i) in
  let specs =
    [ ("ten-a", mk "ten-a:v1" 48); ("ten-b", mk "ten-b:v1" 40);
      ("ten-c", mk "ten-c:v1" 32) ]
  in
  let tenants =
    List.map (fun (cid, s) -> (cid, s, tenant_job ~batch:8 cid s)) specs
  in
  let refs =
    List.map (fun (cid, s) -> (cid, reference_outcomes (spec ~total:s.Executor.total ~tag:s.Executor.tag pure_trial))) specs
  in
  let preload =
    List.map
      (fun (cid, s) -> (cid, fun retry -> Worker.runner_of_exec_spec ~retry s))
      specs
  in
  let spawn ~close_fds =
    Worker.spawn ~close_fds ~preload ~retry:Executor.default_config ()
  in
  let finished : (string, Sched.event) Hashtbl.t = Hashtbl.create 8 in
  let on_event id = function Sched.Progress _ -> () | e -> Hashtbl.replace finished id e in
  let obs = Obs.create () in
  let cfg =
    {
      Sched.default_config with
      Sched.workers = 2;
      chaos_kills = [ 15; 60 ];
      heartbeat_s = 10.0;
      max_active = 2;
      metrics = Some obs;
    }
  in
  let eng =
    Sched.create ~cfg ~spawn
      ~preloaded:(fun cid -> List.mem_assoc cid preload)
      ~on_event ()
  in
  List.iter
    (fun (_, _, (job, _)) ->
      match Sched.submit eng job with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    tenants;
  (* duplicate ids are refused at the door *)
  (match tenants with
  | (_, _, (job, _)) :: _ ->
      Alcotest.(check bool) "duplicate id refused" true
        (Result.is_error (Sched.submit eng job))
  | [] -> ());
  Sched.drain eng;
  Sched.shutdown_workers eng;
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "both chaos kills fired" 2 (counter "server/chaos-kills");
  Alcotest.(check int) "three tenants admitted" 3
    (counter "server/tenants-admitted");
  List.iter
    (fun (cid, s, (_, ledger)) ->
      (match Hashtbl.find_opt finished cid with
      | Some Sched.Finished ->
          Alcotest.(check int) (cid ^ " completed") s.Executor.total
            (Ledger.report ledger).Executor.completed
      | _ -> Alcotest.fail (cid ^ " did not finish"));
      Alcotest.(check bool) (cid ^ " byte-identical to --jobs 1") true
        (outcomes_equal (List.assoc cid refs) (final_outcomes ledger)))
    tenants;
  List.iter
    (fun (st : Sched.tenant_stats) ->
      Alcotest.(check string) (st.Sched.ts_id ^ " state") "done"
        st.Sched.ts_state)
    (Sched.stats eng)

let test_sched_poison_isolation () =
  (* a tenant whose batch 0 stalls forever is poisoned after its lease
     attempts are exhausted — and ONLY that tenant: its pool-mate keeps
     its workers and finishes byte-identical *)
  let sick_trial i = if i < 4 then Unix.sleep 30; pure_trial i in
  let sick = spec ~total:8 ~tag:"sick:v1" sick_trial in
  let well = spec ~total:32 ~tag:"well:v1" (fun i -> Unix.sleepf 0.002; pure_trial i) in
  let well_ref = reference_outcomes (spec ~total:32 ~tag:"well:v1" pure_trial) in
  let sick_job, _ = tenant_job ~batch:4 "sick" sick in
  let well_job, well_ledger = tenant_job ~batch:4 "well" well in
  let preload =
    [ ("sick", fun retry -> Worker.runner_of_exec_spec ~retry sick);
      ("well", fun retry -> Worker.runner_of_exec_spec ~retry well) ]
  in
  let spawn ~close_fds =
    Worker.spawn ~close_fds ~preload ~retry:Executor.default_config ()
  in
  let finished : (string, Sched.event) Hashtbl.t = Hashtbl.create 8 in
  let on_event id = function Sched.Progress _ -> () | e -> Hashtbl.replace finished id e in
  let cfg =
    {
      Sched.default_config with
      Sched.workers = 2;
      heartbeat_s = 0.3;
      max_lease_attempts = 1;
      max_active = 2;
    }
  in
  let eng =
    Sched.create ~cfg ~spawn
      ~preloaded:(fun cid -> List.mem_assoc cid preload)
      ~on_event ()
  in
  (match Sched.submit eng sick_job with Ok () -> () | Error e -> Alcotest.fail e);
  (match Sched.submit eng well_job with Ok () -> () | Error e -> Alcotest.fail e);
  Sched.drain eng;
  Sched.shutdown_workers eng;
  (match Hashtbl.find_opt finished "sick" with
  | Some (Sched.Poisoned { batch; cause; _ }) ->
      Alcotest.(check int) "the stalling batch" 0 batch;
      Alcotest.(check string) "classified as a lease expiry" "lease-expired"
        (Infra.kind cause)
  | _ -> Alcotest.fail "sick tenant was not poisoned");
  (match Hashtbl.find_opt finished "well" with
  | Some Sched.Finished ->
      Alcotest.(check int) "well tenant unharmed" 32
        (Ledger.report well_ledger).Executor.completed
  | _ -> Alcotest.fail "well tenant did not finish");
  Alcotest.(check bool) "well tenant byte-identical to --jobs 1" true
    (outcomes_equal well_ref (final_outcomes well_ledger));
  let states =
    List.map (fun (s : Sched.tenant_stats) -> (s.Sched.ts_id, s.Sched.ts_state))
      (Sched.stats eng)
  in
  Alcotest.(check bool) "stats isolate the poison" true
    (List.assoc "sick" states = "poisoned" && List.assoc "well" states = "done")

let test_sched_remote_worker_vanishes () =
  (* a remote-only pool: two attached workers serving a spec-driven
     campaign; a chaos kill drops one connection exactly the way a
     vanished machine would, the survivor steals the lease, and the
     counts still match --jobs 1 *)
  with_temp_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let cspec =
        { Campaign.default_spec with Campaign.sp_app = "IS"; sp_trials = Some 32 }
      in
      let ex_spec =
        match Plan.spec_of_submission ~cache_dir cspec with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let reference = reference_outcomes ex_spec in
      let job, ledger =
        tenant_job ~jb_spec:cspec ~batch:8 "remote-job" ex_spec
      in
      let finished : (string, Sched.event) Hashtbl.t = Hashtbl.create 4 in
      let on_event id = function
        | Sched.Progress _ -> ()
        | e -> Hashtbl.replace finished id e
      in
      let obs = Obs.create () in
      let cfg =
        {
          Sched.default_config with
          Sched.workers = 0;
          chaos_kills = [ 10 ];
          heartbeat_s = 10.0;
          metrics = Some obs;
        }
      in
      (* no [spawn]: the pool is exactly the two attached workers *)
      let eng = Sched.create ~cfg ~on_event () in
      let pids =
        List.init 2 (fun _ ->
            let pid, conn =
              Worker.spawn
                ~load:(Worker.plan_loader ~cache_dir)
                ~retry:Executor.default_config ()
            in
            Sched.attach_remote eng conn;
            pid)
      in
      Alcotest.(check int) "two remotes attached" 2 (Sched.worker_count eng);
      (match Sched.submit eng job with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Sched.drain eng;
      Sched.shutdown_workers eng;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids;
      let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
      Alcotest.(check int) "one remote vanished" 1 (counter "server/chaos-kills");
      Alcotest.(check bool) "its lease was stolen" true
        (counter "server/leases-stolen" >= 1);
      (match Hashtbl.find_opt finished "remote-job" with
      | Some Sched.Finished ->
          Alcotest.(check int) "all trials ran" ex_spec.Executor.total
            (Ledger.report ledger).Executor.completed
      | _ -> Alcotest.fail "campaign did not finish");
      Alcotest.(check bool) "byte-identical to --jobs 1" true
        (outcomes_equal reference (final_outcomes ledger)))

(* --- one duplicate rule, both journal layouts ------------------------------ *)

(* Journal bytes written by hand in the on-disk format (not through
   [Ledger]): a header [(magic version tag total)], then one
   [(t idx ok payload)] record per line. *)
let hand_journal ~tag ~total (trials : (int * string) list) : string =
  let atom a = Printf.sprintf "%d:%s" (String.length a) a in
  let list xs = "(" ^ String.concat "" xs ^ ")\n" in
  list
    [ atom "fliptracker-journal"; atom "1"; atom tag; atom (string_of_int total) ]
  ^ String.concat ""
      (List.map
         (fun (i, payload) ->
           list [ atom "t"; atom (string_of_int i); atom "ok"; atom payload ])
         trials)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_ledger_duplicate_rule_both_layouts () =
  with_temp_dir (fun dir ->
      (* the same index twice: resume keeps the first record, through
         the executor's single file and the server's one-shard dir *)
      let s =
        {
          Executor.tag = "dup-rule:v1";
          total = 8;
          run_trial = (fun i -> "fresh" ^ string_of_int i);
          encode = Fun.id;
          decode = Option.some;
          should_stop = None;
        }
      in
      let dup = hand_journal ~tag:"dup-rule:v1" ~total:8 [ (0, "A"); (0, "B") ] in
      let file = Filename.concat dir "dup.journal" in
      write_file file dup;
      let ex =
        Executor.run
          ~cfg:
            { Executor.default_config with batch = 4; journal = Some file;
              resume = true }
          s
      in
      let sdir = Filename.concat dir "dup-shards" in
      Unix.mkdir sdir 0o755;
      write_file (List.hd (Shard.shard_paths ~dir:sdir ~shards:1)) dup;
      let sv =
        Server.run
          ~cfg:
            { Server.default_config with Server.workers = 1; batch = 4;
              shards = 1; journal_dir = Some sdir; resume = true;
              heartbeat_s = 10.0 }
          s
      in
      List.iter
        (fun (what, (r : string Executor.report)) ->
          Alcotest.(check bool) (what ^ ": first record wins") true
            (r.Executor.outcomes.(0) = Executor.Done "A");
          Alcotest.(check int) (what ^ ": one trial resumed") 1
            r.Executor.resumed;
          Alcotest.(check int) (what ^ ": campaign completed") 8
            r.Executor.completed)
        [ ("executor", ex); ("server", sv) ];
      (* a journal of each layout in the existing on-disk format,
         killed mid-campaign, resumes to counts identical to a fresh
         run *)
      match Server.plan_of_app "IS" with
      | Error e -> Alcotest.fail e
      | Ok plan ->
          let ccfg =
            { Campaign.default_config with Campaign.max_trials = Some 24 }
          in
          let spec = Server.campaign_spec plan ccfg in
          let fresh =
            Executor.run ~cfg:{ Executor.default_config with batch = 8 } spec
          in
          let bytes (r : Campaign.outcome_class Executor.report) =
            Csexp.to_string
              (Campaign.counts_to_csexp
                 (Campaign.counts_of_outcomes r.Executor.outcomes))
          in
          let journaled lo hi =
            List.init (hi - lo) (fun k ->
                match fresh.Executor.outcomes.(lo + k) with
                | Executor.Done o -> (lo + k, spec.Executor.encode o)
                | Executor.Infra_error _ -> Alcotest.fail "infra error")
          in
          let tag = spec.Executor.tag and total = spec.Executor.total in
          let file = Filename.concat dir "is.journal" in
          write_file file (hand_journal ~tag ~total (journaled 0 12));
          let ex =
            Executor.run
              ~cfg:
                { Executor.default_config with batch = 8; journal = Some file;
                  resume = true }
              spec
          in
          let sdir = Filename.concat dir "is-shards" in
          Unix.mkdir sdir 0o755;
          (match Shard.shard_paths ~dir:sdir ~shards:2 with
          | [ s0; s1 ] ->
              write_file s0 (hand_journal ~tag ~total (journaled 0 8));
              write_file s1 (hand_journal ~tag ~total (journaled 8 12))
          | _ -> assert false);
          let sv =
            Server.run
              ~cfg:
                { Server.default_config with Server.workers = 2; batch = 8;
                  shards = 2; journal_dir = Some sdir; resume = true;
                  heartbeat_s = 10.0 }
              spec
          in
          List.iter
            (fun (what, r) ->
              Alcotest.(check int) (what ^ ": journaled trials resumed") 12
                r.Executor.resumed;
              Alcotest.(check string) (what ^ ": counts identical to fresh")
                (bytes fresh) (bytes r))
            [ ("executor", ex); ("server", sv) ])

(* --- fail-stop: a corrupt frame costs the worker, never the counts ------- *)

(* A forked worker that waits for its first lease, then writes a
   hand-corrupted frame on its raw socket and hangs. *)
let spawn_corrupting ~close_fds =
  flush stdout;
  flush stderr;
  let server_end, worker_end = Wire.pair () in
  match Unix.fork () with
  | 0 ->
      Wire.close server_end;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        close_fds;
      let rec await () =
        match Proto.to_worker_of_csexp (Wire.recv worker_end ~timeout_s:30.0) with
        | Ok (Proto.Lease _) -> ()
        | _ -> await ()
      in
      (try await () with _ -> Unix._exit 1);
      let frame =
        Bytes.of_string
          (raw_frame (Proto.from_worker_to_csexp (Proto.Ready { pid = 0 })))
      in
      let i = Bytes.length frame - 3 in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x40));
      write_raw worker_end (Bytes.to_string frame);
      Unix.sleepf 60.0;
      Unix._exit 0
  | pid ->
      Wire.close worker_end;
      (pid, server_end)

let test_sched_corrupt_frame_fails_stop () =
  with_temp_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let cspec =
        { Campaign.default_spec with Campaign.sp_app = "IS"; sp_trials = Some 32 }
      in
      let ex_spec =
        match Plan.spec_of_submission ~cache_dir cspec with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let reference =
        Campaign.counts_of_outcomes (reference_outcomes ex_spec)
      in
      let job, ledger = tenant_job ~jb_spec:cspec ~batch:8 "corrupt" ex_spec in
      let spawned = ref 0 in
      let spawn ~close_fds =
        incr spawned;
        if !spawned = 1 then spawn_corrupting ~close_fds
        else
          Worker.spawn ~close_fds ~load:(Worker.plan_loader ~cache_dir)
            ~retry:Executor.default_config ()
      in
      let finished = ref None in
      let on_event _ = function
        | Sched.Progress _ -> ()
        | e -> finished := Some e
      in
      let obs = Obs.create () in
      let cfg =
        { Sched.default_config with Sched.workers = 2; heartbeat_s = 10.0;
          metrics = Some obs }
      in
      let eng = Sched.create ~cfg ~spawn ~on_event () in
      (match Sched.submit eng job with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Sched.drain eng;
      Sched.shutdown_workers eng;
      let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
      Alcotest.(check int) "the corrupting worker went down on a wire fault"
        1 (counter "server/wire-faults");
      Alcotest.(check int) "its lease was stolen" 1
        (counter "server/leases-stolen");
      Alcotest.(check bool) "a replacement was forked" true (!spawned >= 3);
      (match !finished with
      | Some Sched.Finished -> ()
      | _ -> Alcotest.fail "campaign did not finish");
      Alcotest.(check string) "counts byte-identical to --jobs 1"
        (Csexp.to_string (Campaign.counts_to_csexp reference))
        (Csexp.to_string
           (Campaign.counts_to_csexp
              (Campaign.counts_of_outcomes (final_outcomes ledger)))))

(* --- the acceptance gate: a real campaign under worker SIGKILL ----------- *)

let test_chaos_campaign_counts_byte_identical () =
  match Server.plan_of_app "IS" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let ccfg =
        { Campaign.default_config with Campaign.max_trials = Some 48 }
      in
      (* the --jobs 1 reference, through the very same plan and kernel *)
      let s = Server.campaign_spec plan ccfg in
      let reference =
        Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s
      in
      let ref_counts = Campaign.counts_of_outcomes reference.Executor.outcomes in
      let obs = Obs.create () in
      let counts, report =
        Server.run_campaign
          ~cfg:
            {
              Server.default_config with
              Server.workers = 2;
              batch = 8;
              chaos_kills = [ 10; 30 ];
              heartbeat_s = 10.0;
              metrics = Some obs;
            }
          plan ccfg
      in
      Alcotest.(check bool) "at least one worker was SIGKILLed" true
        (Option.value ~default:0 (Obs.counter_value obs "server/chaos-kills") >= 1);
      Alcotest.(check int) "all trials ran" reference.Executor.completed
        report.Executor.completed;
      (* the headline invariant: byte-identical counts, infra and
         recovery fields included *)
      Alcotest.(check string) "counts byte-identical to --jobs 1"
        (Csexp.to_string (Campaign.counts_to_csexp ref_counts))
        (Csexp.to_string (Campaign.counts_to_csexp counts))

(* early stopping through the server: the same predicate, asked at the
   same boundaries, stops at the same index as the --jobs 1
   executor — under a worker SIGKILL and again after a resume *)
let test_server_early_stop_matches_executor () =
  match Server.plan_of_app "IS" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      with_temp_dir (fun dir ->
          let ccfg =
            { Campaign.default_config with Campaign.seed = 5; margin = 0.08 }
          in
          let s =
            {
              (Server.campaign_spec plan ccfg) with
              Executor.should_stop = Some (Campaign.early_stop ccfg);
            }
          in
          let reference =
            Executor.run
              ~cfg:{ Executor.default_config with jobs = 1; batch = 16 }
              s
          in
          let bytes (r : Campaign.outcome_class Executor.report) =
            Csexp.to_string
              (Campaign.counts_to_csexp
                 (Campaign.counts_of_outcomes r.Executor.outcomes))
          in
          Alcotest.(check bool) "reference stopped early" true
            reference.Executor.stopped_early;
          let cfg kills resume =
            {
              Server.default_config with
              Server.workers = 2;
              batch = 16;
              journal_dir = Some (Filename.concat dir "journal");
              resume;
              chaos_kills = kills;
              heartbeat_s = 10.0;
            }
          in
          let check label (r : Campaign.outcome_class Executor.report) =
            Alcotest.(check bool) (label ^ ": stopped early") true
              r.Executor.stopped_early;
            Alcotest.(check int) (label ^ ": same stop index")
              reference.Executor.completed r.Executor.completed;
            Alcotest.(check string) (label ^ ": counts byte-identical")
              (bytes reference) (bytes r)
          in
          check "server" (Server.run ~cfg:(cfg [ 40 ] false) s);
          let resumed = Server.run ~cfg:(cfg [] true) s in
          Alcotest.(check bool) "resume skipped journaled trials" true
            (resumed.Executor.resumed > 0);
          check "resumed" resumed)

(* --- the socket service end to end --------------------------------------- *)

let test_serve_two_tenants_fetch_by_id () =
  (* a forked server, two concurrent submissions of the SAME spec (the
     journal-collision regression: distinct ids, distinct directories),
     then the results fetched by id over fresh connections *)
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "ft.sock" in
      let cache_dir = Filename.concat dir "cache" in
      let jroot = Filename.concat dir "journals" in
      let cfg =
        {
          Server.default_config with
          Server.workers = 2;
          batch = 8;
          journal_dir = Some jroot;
          heartbeat_s = 10.0;
        }
      in
      let server_pid = Unix.fork () in
      if server_pid = 0 then begin
        (try Server.serve ~cfg ~cache_dir ~socket () with _ -> ());
        Unix._exit 0
      end;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let cspec =
            {
              Campaign.default_spec with
              Campaign.sp_app = "IS";
              sp_trials = Some 24;
            }
          in
          let retry =
            {
              Executor.default_config with
              Executor.max_retries = 8;
              retry_backoff_s = 0.25;
            }
          in
          (* the second tenant submits from a child process, concurrently *)
          let sub_pid = Unix.fork () in
          if sub_pid = 0 then
            Unix._exit
              (match Client.submit ~retry ~timeout_s:120.0 ~socket cspec with
              | Ok _ -> 0
              | Error _ -> 1);
          (match Client.submit ~retry ~timeout_s:120.0 ~socket cspec with
          | Ok (id, counts) ->
              Alcotest.(check bool) "a campaign id was minted" true
                (String.length id >= 6);
              Alcotest.(check int) "all trials counted" 24
                counts.Campaign.trials
          | Error e -> Alcotest.fail (Client.error_message e));
          let _, st = Unix.waitpid [] sub_pid in
          Alcotest.(check bool) "concurrent submit succeeded" true
            (st = Unix.WEXITED 0);
          (match Client.status ~retry ~socket () with
          | Ok s ->
              let ids =
                List.map (fun t -> t.Proto.tn_id) s.Proto.st_tenants
              in
              Alcotest.(check int) "two tenants served" 2 (List.length ids);
              (match ids with
              | [ a; b ] ->
                  Alcotest.(check bool) "identical specs, distinct ids" true
                    (not (String.equal a b))
              | _ -> ());
              List.iter
                (fun id ->
                  Alcotest.(check bool) (id ^ " has its own journal dir") true
                    (Sys.is_directory (Filename.concat jroot id)))
                ids;
              (* fetch on fresh connections: the verdicts outlive the
                 submitting connections *)
              let encs =
                List.map
                  (fun id ->
                    match Client.fetch ~retry ~socket ~id () with
                    | Ok (Client.Finished c) ->
                        Csexp.to_string (Campaign.counts_to_csexp c)
                    | Ok _ -> Alcotest.fail "expected a finished verdict"
                    | Error e -> Alcotest.fail (Client.error_message e))
                  ids
              in
              (match encs with
              | [ a; b ] ->
                  Alcotest.(check string)
                    "identical specs, byte-identical counts" a b
              | _ -> ());
              (* watch on a finished campaign returns immediately *)
              (match
                 Client.watch ~retry ~socket ~id:(List.hd ids) ()
               with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Client.error_message e))
          | Error e -> Alcotest.fail (Client.error_message e));
          (match Client.fetch ~retry ~socket ~id:"c9999-doesnotexis" () with
          | Error (Client.Refused _) -> ()
          | Ok _ | Error _ -> Alcotest.fail "unknown id must be refused");
          (match Client.shutdown ~socket () with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Client.error_message e));
          ignore (Unix.waitpid [] server_pid)))

let test_client_retry_bounded_unreachable () =
  (* no server at all: the client retries under the jittered-backoff
     policy and then fails with a structured error, never a hang *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ft-nosock-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  let retry =
    {
      Executor.default_config with
      Executor.max_retries = 2;
      retry_backoff_s = 0.02;
      retry_jitter = 0.5;
    }
  in
  let t0 = Unix.gettimeofday () in
  (match Client.status ~retry ~socket () with
  | Ok _ -> Alcotest.fail "expected Unreachable"
  | Error (Client.Unreachable { attempts; _ }) ->
      Alcotest.(check int) "attempts bounded by max_retries + 1" 3 attempts
  | Error e -> Alcotest.fail (Client.error_message e));
  Alcotest.(check bool) "slept between attempts" true
    (Unix.gettimeofday () -. t0 >= 0.02)

(* --- jittered backoff (satellite) ---------------------------------------- *)

let test_backoff_jitter_bounds_and_determinism () =
  let cfg = { Executor.default_config with retry_backoff_s = 0.1; retry_jitter = 0.5 } in
  for idx = 0 to 40 do
    for k = 0 to 3 do
      let s = Executor.backoff_s cfg idx k in
      let step = 0.1 *. Float.of_int (1 lsl k) in
      Alcotest.(check bool) "within [0.5x, 1.5x]" true
        (s >= (0.5 *. step) -. 1e-12 && s <= (1.5 *. step) +. 1e-12);
      Alcotest.(check (float 0.0)) "deterministic per (trial, attempt)" s
        (Executor.backoff_s cfg idx k)
    done
  done;
  let locked = { cfg with Executor.retry_jitter = 0.0 } in
  Alcotest.(check (float 1e-12)) "jitter 0 restores the historical schedule"
    0.4
    (Executor.backoff_s locked 7 2);
  (* distinct trials de-synchronize: not all equal *)
  let sleeps = List.init 20 (fun i -> Executor.backoff_s cfg i 0) in
  Alcotest.(check bool) "trials spread out" true
    (List.exists (fun s -> abs_float (s -. List.hd sleeps) > 1e-6) sleeps)

let suite =
  ( "server",
    [
      Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
      Alcotest.test_case "wire corrupt frame fails stop" `Quick
        test_wire_corrupt_frame_fails_stop;
      Alcotest.test_case "wire recv deadline" `Quick test_wire_recv_deadline;
      Alcotest.test_case "wire closed peer" `Quick test_wire_closed_peer;
      Alcotest.test_case "cache roundtrip + corruption" `Quick
        test_cache_roundtrip_and_corruption;
      Alcotest.test_case "infra kinds roundtrip" `Quick test_infra_kinds_roundtrip;
      Alcotest.test_case "protocol codecs roundtrip" `Quick test_proto_roundtrips;
      Alcotest.test_case "shard torn tails heal per shard" `Quick
        test_shard_torn_tails_heal_per_shard;
      Alcotest.test_case "shard header mismatch refuses" `Quick
        test_shard_header_mismatch_refuses;
      Alcotest.test_case "server matches executor" `Quick
        test_server_matches_executor;
      Alcotest.test_case "chaos kills preserve outcomes" `Quick
        test_server_chaos_kills_preserve_outcomes;
      Alcotest.test_case "kill at batch boundary keeps full prefix" `Quick
        test_server_kill_at_batch_boundary;
      Alcotest.test_case "journal resume after torn shard" `Quick
        test_server_journal_resume;
      Alcotest.test_case "unrunnable campaign poisons" `Quick
        test_server_poisons_unrunnable_campaign;
      Alcotest.test_case "multi-tenant interleaving is deterministic" `Quick
        test_sched_multi_tenant_interleaving;
      Alcotest.test_case "poison is isolated to its tenant" `Quick
        test_sched_poison_isolation;
      Alcotest.test_case "vanished remote worker degrades gracefully" `Slow
        test_sched_remote_worker_vanishes;
      Alcotest.test_case "ledger keeps the first duplicate in both layouts"
        `Quick test_ledger_duplicate_rule_both_layouts;
      Alcotest.test_case "corrupt frame: worker down, lease stolen" `Slow
        test_sched_corrupt_frame_fails_stop;
      Alcotest.test_case "chaos campaign counts byte-identical" `Slow
        test_chaos_campaign_counts_byte_identical;
      Alcotest.test_case "early stop matches the executor" `Quick
        test_server_early_stop_matches_executor;
      Alcotest.test_case "serve: two tenants, fetch by id" `Slow
        test_serve_two_tenants_fetch_by_id;
      Alcotest.test_case "client retry is bounded and structured" `Quick
        test_client_retry_bounded_unreachable;
      Alcotest.test_case "backoff jitter bounds + determinism" `Quick
        test_backoff_jitter_bounds_and_determinism;
    ] )
