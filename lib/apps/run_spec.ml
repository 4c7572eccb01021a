module App = Orion.App
module Engine = Orion.Engine

type common = {
  scale : float;
  passes : int;
  comms : string;
  machines : int;
  workers_per_machine : int;
}

let common ?(scale = 1.0) ?(passes = 1) ?(comms = "auto") ?(machines = 4)
    ?(workers_per_machine = 2) () =
  { scale; passes; comms; machines; workers_per_machine }

type t = {
  app : App.t;
  backend : Engine.mode;
  common : common;
  machines : int;
  workers_per_machine : int;
}

let make (common : common) app backend =
  let shaped ~num_machines ~workers_per_machine =
    { app; backend; common; machines = num_machines; workers_per_machine }
  in
  match backend with
  | `Distributed { Engine.procs; _ } ->
      (* one worker process per simulated machine *)
      shaped ~num_machines:procs ~workers_per_machine:1
  | `Sim | `Parallel _ ->
      shaped ~num_machines:common.machines
        ~workers_per_machine:common.workers_per_machine

let instance s =
  s.app.App.app_make ~scale:s.common.scale ~num_machines:s.machines
    ~workers_per_machine:s.workers_per_machine ()

let run ?passes ?telemetry ?checkpoint ?replanner s (inst : App.instance) =
  Engine.run inst.App.inst_session inst ~mode:s.backend
    ~passes:(Option.value passes ~default:s.common.passes)
    ~comms:s.common.comms ?telemetry ?checkpoint ?replanner ()

let workers s =
  match s.backend with
  | `Sim -> 1
  | `Parallel d -> d
  | `Distributed { Engine.procs; _ } -> procs

let reference s = { s with backend = `Sim }
