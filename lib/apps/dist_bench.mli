(** Distributed (multi-process, socket) speedup benchmark over the
    registered apps, behind [orion bench --mode speedup-distributed].
    Each worker count runs once per requested communication policy,
    always starting with a [full] baseline row that the other policies
    are measured against (bytes saved, bitwise equality, final-loss
    drift).  Results are also checked element-wise against a simulated
    execution of the same schedule; the payload is enveloped by
    {!Bench.run} (kind ["bench-speedup-distributed"]). *)

type run = {
  run_procs : int;  (** worker processes requested *)
  run_comms : string;  (** normalized communication policy spec *)
  run_wall_seconds : float;
  run_entries : int;
  run_bytes_shipped : float;  (** actual wire bytes of DistArray state *)
  run_bytes_full : float;  (** [full]-policy equivalent of the same traffic *)
  run_bytes_saved_fraction : float;
      (** 1 - shipped/full-baseline-shipped for the same procs count *)
  run_bytes_by_array : (string * float) list;
  run_policy_by_array : (string * string) list;
  run_speedup : float;  (** wall(1 proc, full) / wall(n procs) *)
  run_straggler_ratio : float option;
      (** max/mean busy time over workers, from the merged wall-clock
          telemetry ([None] when telemetry was disabled) *)
  run_barrier_wait_fraction : float option;
      (** fraction of worker time spent in pass barriers, from
          telemetry *)
  run_max_abs_vs_sim : float;
  run_max_rel_vs_sim : float;
  run_equal_vs_sim : bool;  (** within the app's tolerance *)
  run_max_abs_vs_full : float;
      (** element-wise drift vs the full-policy run at the same procs *)
  run_equal_vs_full : bool;  (** bitwise *)
  run_loss : float option;  (** final training loss, when the app has one *)
  run_loss_drift_vs_full : float option;
      (** |loss - full_loss| / max(|full_loss|, 1e-12) *)
}

type app_result = {
  res_app : string;
  res_strategy : string;
  res_model : string;
  res_runs : run list;
}

(** Run every app on each worker-process count in [procs]; each count
    measures a [full]-policy baseline row first, then one row per other
    policy in [comms] (which takes the place of [common.comms]).  Returns the results and the un-enveloped
    ["bench-speedup-distributed"] payload.
    @raise Invalid_argument on a malformed policy spec *)
val run :
  Run_spec.common ->
  Orion.App.t list ->
  transport:Orion.Engine.transport ->
  procs:int list ->
  comms:string list ->
  app_result list * Orion.Report.json

(** Human-readable per-app/per-proc-count/per-policy table on stdout. *)
val print_results : app_result list -> unit
