(** The "measured" decision-tree variant behind [orion explain
    --measured]: run an app briefly on a real backend, calibrate a
    {!Cost_table} from its block costs, re-cost every strategy
    candidate the static planner considered, and flag decisions that
    flip under measurement.

    Calibration: the static tree counts elements moved (communication
    units); the measured tree charges each such element the observed
    per-entry second rate and adds a measured compute term — the
    observed max-partition seconds for the strategy that actually ran
    (real skew included), the balanced ideal [total / parts] for the
    alternatives the static model assumed balanced. *)

type measured_candidate = {
  mc_candidate : Orion.Plan.candidate;
  mc_measured_cost : float;  (** calibrated cost, in seconds *)
  mc_measured_chosen : bool;
}

type report = {
  mr_app : string;
  mr_mode : string;  (** the backend that produced the measurements *)
  mr_workers : int;
  mr_pass : int;  (** the measured pass the table was built from *)
  mr_table : Cost_table.t;
  mr_candidates : measured_candidate list;
  mr_static_choice : string;
  mr_measured_choice : string;
  mr_flipped : bool;  (** measured choice differs from the static one *)
}

(** Re-cost a plan's candidates against a measured table. *)
val recost : Cost_table.t -> Orion.Plan.t -> measured_candidate list

(** Run the spec with telemetry and build the measured report from the
    last pass's costs. *)
val run_app : Orion_apps.Run_spec.t -> (report, string) result

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
val report_json : report -> Orion.Report.json
