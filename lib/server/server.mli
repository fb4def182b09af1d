(** The campaign server: a crash-tolerant, {e multi-tenant} scheduler
    for deterministic trial campaigns.  The fair-share lease engine
    lives in {!Sched}; this module keeps the two front doors — {!run}
    (one {!Executor.spec} on a private engine, the drop-in
    single-campaign path) and {!serve} (the long-running socket
    service: wire-submitted campaigns queued, interleaved across one
    shared pool of forked and remote TCP workers, each under a
    deterministic campaign id with its own journal directory and a
    persisted, fetchable verdict).  Every campaign's counts stay
    byte-identical to its own [--jobs 1] run no matter how tenants
    interleave or how many workers die. *)

type config = {
  workers : int;  (** forked worker processes *)
  batch : int;  (** trials per lease; fixed boundaries like the executor *)
  shards : int;  (** journal shards (batch [b] logs to [b mod shards]) *)
  journal_dir : string option;
      (** {!run}: the campaign's shard directory.  {!serve}: the root —
          each campaign journals under [<root>/<campaign-id>] and
          finished verdicts persist under [<root>/results]. *)
  resume : bool;  (** heal + load the journal, skip completed trials *)
  heartbeat_s : float;  (** per-worker lease deadline between messages *)
  max_lease_attempts : int;
      (** lease failures tolerated per batch before the campaign is
          poisoned *)
  max_active : int;
      (** campaigns {!serve} schedules concurrently; the rest queue *)
  chaos_kills : int list;
      (** SIGKILL the most recent deliverer when the delivered-trial
          count crosses each threshold — the determinism harness *)
  chaos_stall_done_s : float;
      (** workers sleep this long between a batch's last trial record
          and its [Batch_done] (0 = no stall): combined with a short
          [heartbeat_s] it deterministically orphans fully-delivered
          leases, the batch-boundary crash window *)
  retry : Executor.config;
      (** worker-side trial retry and the lease re-assignment backoff
          share this policy *)
  metrics : Obs.t option;
      (** scheduler metrics: [server/workers-forked],
          [server/workers-attached], [server/leases-stolen],
          [server/heartbeats-missed], [server/wire-faults],
          [server/retries], [server/chaos-kills],
          [server/infra-errors], [server/tenants-*] *)
  on_progress : (Executor.progress -> unit) option;
}

val default_config : config
(** 2 workers, batch 16, 4 shards, no journal, 30 s heartbeats, 3 lease
    attempts, 4 concurrent campaigns, no chaos. *)

val run :
  ?cfg:config ->
  ?idle:(unit -> unit) ->
  ?child_close:Unix.file_descr list ->
  'a Executor.spec ->
  'a Executor.report
(** Run a spec across a private worker pool.  [idle] is called once
    per scheduler iteration.  [child_close] lists caller-held
    descriptors (a listening socket, a client connection) that forked
    workers must close rather than inherit; the scheduler adds sibling
    workers' sockets itself.
    @raise Infra.Campaign_poisoned when a batch exhausts its lease
    attempts — the campaign is infrastructure-broken. *)

(** {2 Campaign plans}

    Re-exported from {!Plan} (where workers also find them): the
    expensive, content-addressed artifacts of an app spelling. *)

type plan = Plan.plan = {
  pl_app : string;
  pl_prog : Prog.t;
  pl_target : Campaign.target;
  pl_clean_instructions : int;
  pl_golden_output : string;  (** the fault-free run's output *)
}

val plan_key : string -> string
(** Cache key of an app spelling. *)

val plan_of_app : ?cache_dir:string -> string -> (plan, string) result
(** Resolve, bake, trace and (when [cache_dir] is given) cache the
    plan for an app spelling ([CG], [IS@all], [MG@opt], ...). *)

val target_of_plan : plan -> Structure.t -> Campaign.target
(** The injection target a plan exposes for a declared structure:
    [pl_target] (the register-file surface) for [Structure.Reg],
    otherwise a structural target rebuilt from the plan's program. *)

val campaign_spec : plan -> Campaign.config -> Campaign.outcome_class Executor.spec
(** The executor spec of a campaign over a plan — built exactly the way
    {!Campaign.run_report} builds its own (same tag, same trial kernel,
    same outcome codec): the byte-identity contract with [--jobs 1].
    The target follows the config's declared [structure]. *)

val run_campaign :
  ?cfg:config ->
  ?idle:(unit -> unit) ->
  plan ->
  Campaign.config ->
  Campaign.counts * Campaign.outcome_class Executor.report

(** {2 The socket front-end} *)

val campaign_id : int -> string -> string
(** Deterministic campaign id: admission ordinal + tag hash
    ([c0007-1a2b3c4d5e]).  Distinct submissions of the same spec get
    distinct ids — and therefore distinct journal directories. *)

val serve :
  ?cfg:config ->
  ?cache_dir:string ->
  ?worker_bind:string ->
  ?worker_port_file:string ->
  socket:string ->
  unit ->
  unit
(** Listen on a Unix-domain [socket] and serve {!Proto.client_msg}
    requests until a shutdown.  Submissions are {e queued}, up to
    [cfg.max_active] running interleaved on the shared pool; each
    campaign journals under [<journal_dir>/<campaign-id>] with resume
    forced on, and its final verdict persists under
    [<journal_dir>/results/<campaign-id>] where [Fetch]/[Watch] can
    find it after the submitting connection is gone.  [Submit] with a
    [resume_id] re-attaches to a live campaign or resumes an
    interrupted one's journal under its old id.

    [worker_bind] ([HOST:PORT], port [0] for ephemeral) additionally
    listens for remote TCP workers ([ft worker --connect]); the bound
    port is written to [worker_port_file] when given.  A vanished
    remote worker is handled exactly like a SIGKILLed fork: its lease
    is stolen and the pool degrades gracefully. *)
