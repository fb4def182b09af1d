(** The per-layer metrics of the traced run: name, unit, and the
    end-to-end metric and workloads each one should move.  A layer that
    does no work on a workload (or runs only inside forked workers the
    benchmark cannot see into) reads 0 there. *)

type metric = { name : string; unit_ : string; moves : string }

let all_campaigns = "campaign-serial, campaign-parallel, campaign-server"
let m name unit_ moves = { name; unit_; moves }

let table : metric list =
  [
    m "apps.bake_s" "s" "setup_s on all workloads";
    m "apps.verify_us_p50" "us" "trials_per_s on campaign-serial";
    m "apps.verify_share" "share" "trials_per_s on campaign-serial";
    m "faults.target_s" "s" ("setup_s on " ^ all_campaigns);
    m "faults.sample_us_p50" "us" "trials_per_s on campaign-serial";
    m "faults.sample_share" "share" "trials_per_s on campaign-serial";
    m "vm.trace_clean_s" "s" ("setup_s on " ^ all_campaigns);
    m "vm.plan_compile_s" "s" "setup_s on all workloads";
    m "vm.exec_ms_p50" "ms" ("trials_per_s on " ^ all_campaigns);
    m "vm.exec_ms_p99" "ms" ("trials_per_s on " ^ all_campaigns);
    m "vm.exec_share" "share" ("trials_per_s on " ^ all_campaigns);
    m "vm.instructions_per_trial" "count" ("trials_per_s on " ^ all_campaigns);
    m "vm.budget_share" "share" ("trials_per_s on " ^ all_campaigns);
    m "vm.minor_words_per_trial" "words"
      "trials_per_s on campaign-parallel (most), campaign-serial";
    m "vm.promoted_words_per_trial" "words"
      "trials_per_s on campaign-parallel (most), campaign-serial";
    m "vm.minor_gcs_per_ktrial" "count"
      "trials_per_s on campaign-parallel (most), campaign-serial";
    m "vm.major_gcs_per_ktrial" "count"
      "trials_per_s on campaign-parallel (most), campaign-serial";
    m "trial.ms_p50" "ms" "trials_per_s on campaign-serial";
    m "trial.ms_p99" "ms" "trials_per_s on campaign-serial";
    m "trial.self_us_p50" "us" "trials_per_s on campaign-serial";
    m "trial.self_share" "share" "trials_per_s on campaign-serial";
    m "trial.unattributed_share" "share" "trials_per_s on campaign-serial";
    m "runtime.busy_share" "share" "trials_per_s on campaign-parallel";
    m "runtime.batch_gap_ms_p50" "ms" "trials_per_s on campaign-parallel";
    m "runtime.journal_s" "s" "trials_per_s on campaign-parallel";
    m "runtime.journal_bytes" "bytes" "trials_per_s on campaign-parallel";
    m "runtime.batches" "count" "trials_per_s on campaign-parallel";
    m "runtime.retries" "count" "trials_per_s on campaign-parallel";
    m "server.spawn_s" "s" "trials_per_s on campaign-server";
    m "server.progress_gap_ms_p50" "ms" "trials_per_s on campaign-server";
    m "server.progress_gap_ms_p99" "ms" "trials_per_s on campaign-server";
    m "server.idle_iterations" "count" "trials_per_s on campaign-server";
    m "server.journal_bytes" "bytes" "trials_per_s on campaign-server";
    m "server.workers_forked" "count" "trials_per_s on campaign-server";
    m "server.leases_stolen" "count" "trials_per_s on campaign-server";
    m "server.heartbeats_missed" "count" "trials_per_s on campaign-server";
    m "server.retries" "count" "trials_per_s on campaign-server";
    m "analysis.trace_run_s" "s" "analysis_s on analysis-cg";
    m "analysis.events" "count" "analysis_s on analysis-cg";
    m "analysis.encode_s" "s" "analysis_s on analysis-cg";
    m "analysis.encode_bytes" "bytes" "analysis_s on analysis-cg";
    m "analysis.split_s" "s" "analysis_s on analysis-cg";
    m "analysis.pieces" "count" "analysis_s on analysis-cg";
    m "analysis.region_s" "s" "analysis_s on analysis-cg";
    m "analysis.access_s" "s" "analysis_s on analysis-cg";
    m "analysis.dddg_s" "s" "analysis_s on analysis-cg";
    m "analysis.dddg_nodes" "count" "analysis_s on analysis-cg";
    m "analysis.faulty_trace_s" "s" "analysis_s on analysis-cg";
    m "analysis.acl_s" "s" "analysis_s on analysis-cg";
    m "analysis.acl_peak" "count" "analysis_s on analysis-cg";
    m "analysis.acl_deaths" "count" "analysis_s on analysis-cg";
    m "analysis.acl_maskings" "count" "analysis_s on analysis-cg";
    m "analysis.minor_words" "words" "analysis_s on analysis-cg";
    m "analysis.major_gcs" "count" "analysis_s on analysis-cg";
    m "patterns.detect_s" "s" "analysis_s on analysis-cg";
    m "patterns.rates_s" "s" "analysis_s on analysis-cg";
    m "trace_overhead" "ratio" "trials_per_s on campaign-serial";
  ]

(** Measured values of one traced run, by metric name. *)
type values = (string, float) Hashtbl.t

let set (v : values) (name : string) (x : float) : unit =
  if not (List.exists (fun m -> m.name = name) table) then
    invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace v name x

let get (v : values) (name : string) : float =
  Option.value (Hashtbl.find_opt v name) ~default:0.0
