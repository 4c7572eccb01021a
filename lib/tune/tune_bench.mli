(** Static-vs-adaptive benchmarking: run an app twice on the same real
    backend — once with the planner's static schedule, once with the
    measurement-driven {!Replanner} — then replay the adaptive run's
    adopted schedule sequence statically and check the results agree.
    [bench --mode tune] and [orion tune] are thin wrappers. *)

type run_result = {
  tb_app : string;
  tb_mode : string;  (** ["parallel"] or ["distributed"] *)
  tb_workers : int;
  tb_passes : int;
  tb_static_wall : float;
  tb_adaptive_wall : float;
  tb_speedup : float;  (** static wall / adaptive wall *)
  tb_static_straggler : float;
  tb_adaptive_straggler : float;
  tb_static_crit : float;
      (** sum over passes of max per-partition block seconds: the
          parallel critical path.  Wall clock tracks it when each worker
          has a core of its own; on oversubscribed hosts wall collapses
          to total work and hides the re-balance, so both are reported *)
  tb_adaptive_crit : float;
  tb_crit_speedup : float;  (** static critical path / adaptive *)
  tb_static_pass_walls : (int * float) list;
  tb_adaptive_pass_walls : (int * float) list;
  tb_decisions : Replanner.decision list;  (** the adaptive run's log *)
  tb_adopted : int;
  tb_rejected : int;
  tb_adopted_unvalidated : int;
      (** adopted decisions that were not race-checker-clean — must be 0 *)
  tb_replay_equal : bool;
      (** adaptive final arrays match a static replay of the adopted
          schedule sequence (bitwise, or within the app's tolerance) *)
}

val result_json : run_result -> Orion.Report.json
val pp_result : Format.formatter -> run_result -> unit

(** One static + adaptive + replay comparison of the spec's run. *)
val run_app : Orion_apps.Run_spec.t -> run_result

val default_out : string

(** The [bench --mode tune] suite: {!run_app} on every app and
    backend, every run sharing [common], written to [out] as a versioned
    [bench-tune] envelope with the uniform bench rows appended. *)
val run :
  out:string ->
  ?print:bool ->
  Orion_apps.Run_spec.common ->
  Orion.App.t list ->
  Orion.Engine.mode list ->
  Orion_apps.Bench.row list
