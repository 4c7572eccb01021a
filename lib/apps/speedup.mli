(** Self-relative multicore speedup benchmark over the registered apps,
    shared by [orion bench --mode speedup] and the bench harness.
    Results are checked element-wise against a simulated execution of
    the same schedule — which always interprets, so with compilation
    enabled each check doubles as a compiled-vs-interpreted
    differential test.  JSON output uses the versioned report envelope
    (kind ["bench-speedup"]). *)

type run = {
  run_domains : int;
  run_comms : string;
      (** communication policy — always ["local"]: the domain pool
          shares memory, nothing crosses a wire *)
  run_wall_seconds : float;
  run_entries : int;
  run_steals : int;
  run_bytes_shipped : float;  (** 0 for in-process runs *)
  run_bytes_full : float;  (** 0 for in-process runs *)
  run_speedup : float;  (** wall(1 domain) / wall(n domains) *)
  run_oversubscribed : bool;
      (** more domains than available cores — wall time measures
          scheduler thrash, not parallel speedup *)
  run_compiled : bool;  (** bodies ran as {!Orion.Compile} kernels *)
  run_straggler_ratio : float option;
      (** max/mean busy time over domains, from wall-clock telemetry
          ([None] when telemetry was disabled) *)
  run_barrier_wait_fraction : float option;
      (** fraction of domain time spent waiting, from telemetry *)
  run_max_abs_vs_sim : float;
  run_max_rel_vs_sim : float;
  run_equal_vs_sim : bool;  (** within the app's tolerance *)
}

type app_result = {
  res_app : string;
  res_strategy : string;
  res_model : string;
  res_runs : run list;
  res_best_speedup : float option;
      (** best speedup over the non-oversubscribed multi-domain runs;
          [None] when every multi-domain run was oversubscribed *)
  res_best_speedup_reason : string option;
      (** why [res_best_speedup] is [None], naming the core count *)
}

(** Element-wise (max |a-b|, max relative) difference over two output
    lists of the same shape (also used by {!Dist_bench}). *)
val diff_outputs :
  (string * float Orion_dsm.Dist_array.t) list ->
  (string * float Orion_dsm.Dist_array.t) list ->
  float * float

(** Run every app at each domain count of [domains] (the first is the
    1x base of its speedups), each run checked against the [`Sim] run
    of the same instance.  Returns the results and the un-enveloped
    ["bench-speedup"] payload ({!Bench.run} envelopes and writes it to
    [BENCH_parallel.json]). *)
val run :
  Run_spec.common ->
  Orion.App.t list ->
  domains:int list ->
  app_result list * Orion.Report.json

(** Human-readable per-app/per-domain-count table on stdout. *)
val print_results : app_result list -> unit
