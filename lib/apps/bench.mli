(** Unified benchmark front door, behind [orion bench].

    All three suites — multicore speedup ({!Speedup}), distributed
    speedup with communication policies ({!Dist_bench}), and
    loss-vs-wall-time convergence ({!Convergence}) — run through one
    {!run} call.  Each keeps its suite-specific payload, but every
    written envelope also carries a uniform ["rows"] list with the
    same columns (app, mode, workers, comms policy, wall seconds,
    bytes shipped vs full-policy bytes), so tooling can read any
    [BENCH_*.json] without knowing which suite produced it. *)

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** ["BENCH_parallel.json"], ["BENCH_distributed.json"], or
    ["BENCH_convergence.json"]. *)
val default_out : mode -> string

(** One benchmark measurement in the shared shape. *)
type row = {
  row_app : string;
  row_mode : string;  (** engine mode: ["sim"], ["parallel"], ["distributed"] *)
  row_workers : int;  (** domains or worker processes *)
  row_comms : string;  (** communication policy ([local] off the wire) *)
  row_wall_seconds : float;
  row_speedup : float option;
  row_loss : float option;  (** final training loss, when measured *)
  row_bytes_shipped : float;
  row_bytes_full : float;
  row_bytes_saved_fraction : float;
  row_policy_by_array : (string * string) list;
  row_ok : bool option;
      (** matched the suite's reference run, where one exists *)
}

val row_json : row -> Orion.Report.json

(** Append the uniform ["rows"] section to a suite payload — shared
    with out-of-tree suites (e.g. [lib/tune]'s [bench-tune]) so every
    BENCH_*.json stays uniformly readable. *)
val with_rows : Orion.Report.json -> row list -> Orion.Report.json

(** Write an enveloped report (plus trailing newline) to a path. *)
val write_file : string -> string -> unit

(** A suite and the backends it sweeps: domain counts for [`Speedup];
    transport, worker-process counts and comms policies for
    [`Speedup_distributed]; one curve per backend for [`Convergence]. *)
type suite =
  [ `Speedup of int list
  | `Speedup_distributed of Orion.Engine.transport * int list * string list
  | `Convergence of Orion.Engine.mode list ]

(** Run one benchmark suite over [apps], every run sharing [common], and
    write its enveloped JSON (with the uniform ["rows"] section
    appended) to [out] (see {!default_out} for the conventional paths).
    [print] (default true) emits the human-readable tables on stdout.
    Returns the rows.
    @raise Orion.Engine.Distributed_error when a distributed run fails
    @raise Invalid_argument on a malformed [comms] policy spec *)
val run :
  out:string ->
  ?print:bool ->
  Run_spec.common ->
  Orion.App.t list ->
  suite ->
  row list
