(** The multi-tenant fair-share lease scheduler: one worker pool
    (forked children and remote TCP attachments), many concurrently
    interleaved campaigns, per-campaign fault isolation.  Type-erased:
    each tenant's records go into the {!Ledger.erased} view of its
    owner's typed ledger, which keeps them first-write-wins, so its
    counts are byte-identical to its own [--jobs 1] run regardless of
    interleaving or worker deaths.  A worker that dies, stalls or
    sends a corrupt frame is killed and its lease stolen (fail-stop). *)

type config = {
  workers : int;  (** forked worker processes to keep at strength *)
  heartbeat_s : float;  (** per-worker lease deadline between messages *)
  max_lease_attempts : int;
      (** lease failures tolerated per batch before {e that} campaign
          is poisoned *)
  max_active : int;  (** campaigns scheduled concurrently; rest queue *)
  chaos_kills : int list;
      (** SIGKILL the most recent deliverer when the pool-wide
          delivered count crosses each threshold *)
  retry : Executor.config;
  metrics : Obs.t option;
}

val default_config : config

type job = {
  jb_id : string;
  jb_app : string;  (** display only *)
  jb_spec : Campaign.spec option;
      (** wire form workers rebuild the campaign from; [None] = only
          runnable on workers forked with it preloaded *)
  jb_ledger : Ledger.erased;
      (** the campaign's ledger: its batches are the leases, it keeps
          and journals delivered records and decides early stop *)
}

type event =
  | Progress of { completed : int; planned : int; stolen : int }
  | Finished  (** the owner's ledger holds the report *)
  | Poisoned of { batch : int; attempts : int; cause : Infra.cause }
  | Failed of { reason : string }  (** admission failed *)

type tenant_stats = {
  ts_id : string;
  ts_app : string;
  ts_state : string;  (** [queued], [active], [done], [poisoned], [failed] *)
  ts_completed : int;
  ts_planned : int;
  ts_leases : int;
  ts_steals : int;
}

type t

val create :
  ?cfg:config ->
  ?spawn:(close_fds:Unix.file_descr list -> int * Wire.conn) ->
  ?preloaded:(string -> bool) ->
  on_event:(string -> event -> unit) ->
  unit ->
  t
(** [spawn] forks one worker (the engine passes the sibling sockets it
    must close; add your own listener/client fds in the closure); when
    absent the pool is remote-only.  [preloaded] names campaigns baked
    into forked workers' images.  [on_event] receives every tenant's
    lifecycle, keyed by campaign id. *)

val submit : t -> job -> (unit, string) result
(** Enqueue a campaign; admitted (its ledger's journal opened or
    resumed) when a slot under [max_active] frees up.  Fails on
    duplicate id. *)

val attach_remote : t -> Wire.conn -> unit
(** Add a remote TCP worker to the pool.  A vanished remote is handled
    exactly like a SIGKILLed fork: lease stolen, pool degrades. *)

val step : t -> idle_s:float -> unit
(** One scheduling round: admit, keep the forked pool at strength,
    assign leases fairly, wait up to [idle_s] for worker traffic,
    drain messages, enforce heartbeat deadlines. *)

val drain : t -> unit
(** [step] until no tenant is queued or active. *)

val busy : t -> bool
val shutdown_workers : t -> unit
val abort : t -> unit
(** Close active tenants' journals (synced) and kill the pool: the
    cleanup path when the caller's loop raises. *)

val stats : t -> tenant_stats list
(** Per-tenant rows in submission order. *)

val queue_depth : t -> int
val active_count : t -> int
val worker_count : t -> int
