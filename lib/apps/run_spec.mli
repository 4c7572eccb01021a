(** One way to name a run: the app, the backend, and what every run of
    one invocation shares (dataset scale, pass count, communication
    policy, machine shape).  Every CLI subcommand and bench driver that
    trains a registered app describes its runs with these.  {!make} is
    the only code that decides an instance's machine shape from the
    backend. *)

(** What the runs of one invocation share.  A bench driver takes one
    of these plus the backends it sweeps, so its payload header (scale,
    passes, shape) always describes every run. *)
type common = {
  scale : float;
  passes : int;
  comms : string;  (** communication policy of [`Distributed] runs *)
  machines : int;
  workers_per_machine : int;
      (** the shape of [`Sim] and [`Parallel] instances *)
}

(** Defaults: scale 1, 1 pass, comms ["auto"], 4 machines x 2 workers. *)
val common :
  ?scale:float ->
  ?passes:int ->
  ?comms:string ->
  ?machines:int ->
  ?workers_per_machine:int ->
  unit ->
  common

type t = private {
  app : Orion.App.t;
  backend : Orion.Engine.mode;
  common : common;
  machines : int;
  workers_per_machine : int;
      (** the instance shape: [common]'s for [`Sim] and [`Parallel];
          [procs] machines of one worker each for [`Distributed] *)
}

val make : common -> Orion.App.t -> Orion.Engine.mode -> t

(** A fresh instance of the spec's app, at its scale and shape. *)
val instance : t -> Orion.App.instance

(** [Engine.run] of [inst] under the spec's backend, pass count
    ([passes] overrides it) and comms policy. *)
val run :
  ?passes:int ->
  ?telemetry:bool ->
  ?checkpoint:int * Orion.Engine.checkpoint_sink ->
  ?replanner:Orion.Engine.replanner ->
  t ->
  Orion.App.instance ->
  Orion.Engine.report

(** Domains or worker processes (1 for [`Sim]). *)
val workers : t -> int

(** The same run on [`Sim], on the same instance shape: the reference
    every real backend must equal. *)
val reference : t -> t
