(** Re-planner factories for {!Orion.Engine.run}'s [?replanner] hook.

    {!make} builds the measurement-driven re-planner: at each pass
    boundary it folds the pass's block costs into a {!Cost_table},
    proposes a weighted-interval space cut ({!Orion.Partitioner.weighted_ranges}
    over measured per-entry rates), and adopts it only if (a) the
    predicted max-partition cost improves on the observed one by at
    least [margin] and (b) the candidate schedule passes the
    [lib/verify] race checker against serially observed dependence
    edges.  Rejected candidates are logged, never adopted.

    {!scripted} replays a fixed decision sequence — the bit-equality
    check re-runs an adaptive run's adopted schedule sequence statically
    and the two must agree. *)

type decision = {
  d_pass : int;  (** the pass boundary the decision was taken at *)
  d_adopted : bool;
  d_reason : string;
  d_boundaries : int array option;  (** the candidate space cut *)
  d_observed_max : float;  (** measured max-partition seconds *)
  d_predicted_max : float;  (** predicted max under the candidate cut *)
  d_race_checked : bool;
  d_race_violations : int;
  d_replan : Orion.Engine.replan option;  (** what was handed to the engine *)
}

val decision_to_string : decision -> string
val decision_json : decision -> Orion.Report.json

type t = {
  fn : Orion.Engine.replanner;
  log : unit -> decision list;  (** decisions in the order they were taken *)
  prepare : unit -> unit;
      (** force the one-time serial dependence observation now (it is
          otherwise lazy) — benchmarks call it before starting the
          clock so the race-check setup is not billed to the first
          adopted re-plan *)
}

(** Adopted (pass, replan) pairs from a finished run's log — feed to
    {!scripted} to replay the same schedule sequence statically. *)
val adopted : t -> (int * Orion.Engine.replan) list

(** The measurement-driven re-planner for one instance of [app].  The
    race check serially observes a {e fresh} instance of the same scale
    and shape (once, lazily) because observation mutates its arrays.
    [margin] (default 0.1) is the minimum predicted improvement of the
    max-partition cost before a re-balance is worth a migration; a
    measured straggler ratio under [1 + 2 margin] also keeps the
    current cut (re-balancing noise is how adaptive schedulers
    thrash).  Each adoption escalates the effective margin by another
    [margin] — migrations have a real cost, so successive re-balances
    must clear an ever-higher bar and the cut converges instead of
    chasing noise. *)
val make :
  ?margin:float ->
  app:Orion.App.t ->
  inst:Orion.App.instance ->
  unit ->
  t

(** Replay a fixed decision script: [(pass, replan)] applied at each
    listed pass boundary, everything else kept. *)
val scripted : (int * Orion.Engine.replan) list -> t
