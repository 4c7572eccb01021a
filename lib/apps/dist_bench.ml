(** Distributed speedup benchmark: run each registered app's loop on
    the multi-process socket runtime ({!Orion_net.Dist_master}) at
    increasing worker counts and under each requested communication
    policy, record wall-clock time and the bytes each DistArray shipped
    over the wire, and check the results element-wise against a
    simulated ([`Sim]) execution of the same schedule.

    Every [procs] count first runs the [full] policy as a baseline row;
    the other requested policies are then measured against it:
    bytes-saved fraction, bitwise equality ([delta] must match), and
    relative final-loss drift (lossy policies trade accuracy for
    bytes).

    Used by [orion bench --mode speedup-distributed]; the JSON (kind
    ["bench-speedup-distributed"]) lands in [BENCH_distributed.json].
    Every [procs] count gets its own simulated reference built with the
    same cluster shape ([num_machines = procs], one worker per
    machine): schedule shape determines entry execution order, which
    order-sensitive apps are bitwise sensitive to. *)

module Report = Orion.Report
module App = Orion.App
module Policy = Orion_net.Policy

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

(* normalize a --comms spec ("" -> "auto", "topk:08" -> "topk:8"); an
   invalid spec is a caller error worth failing loudly on *)
let normalize_spec s =
  Policy.spec_to_string (Policy.spec_of_string_exn s)

let bench_app (common : Run_spec.common) (app : App.t) ~transport ~procs ~comms
    : app_result =
  let strategy = ref "" and model = ref "" in
  let base_wall = ref None in
  let runs =
    List.concat_map
      (fun procs ->
        let spec comms =
          Run_spec.make { common with comms } app
            (`Distributed { Orion.Engine.procs; transport })
        in
        let ref_spec = Run_spec.reference (spec "full") in
        let ref_inst = Run_spec.instance ref_spec in
        ignore (Run_spec.run ref_spec ref_inst);
        (* one distributed run under [comms]; the full-policy baseline
           comes first so every other policy can be measured against
           its outputs, loss, and bytes *)
        let measure ~comms ~full =
          let spec = spec comms in
          let inst = Run_spec.instance spec in
          let r = Run_spec.run spec inst in
          strategy := r.Orion.Engine.ep_strategy;
          model := r.Orion.Engine.ep_model;
          let max_abs, max_rel =
            Speedup.diff_outputs inst.App.inst_outputs
              ref_inst.App.inst_outputs
          in
          let equal =
            match app.App.app_tolerance with
            | None -> max_abs = 0.0
            | Some tol -> max_rel <= tol
          in
          let base =
            match !base_wall with
            | Some b -> b
            | None ->
                base_wall := Some r.Orion.Engine.ep_wall_seconds;
                r.Orion.Engine.ep_wall_seconds
          in
          let overall =
            Option.map
              (fun sm -> sm.Orion.Telemetry.sm_overall)
              r.Orion.Engine.ep_telemetry
          in
          let loss = Option.map (fun f -> f inst) app.App.app_loss in
          let max_abs_vs_full, full_bytes_baseline, loss_drift =
            match full with
            | None -> (0.0, r.Orion.Engine.ep_bytes_shipped, Some 0.0)
            | Some (full_inst, full_run, full_loss) ->
                let abs_f, _ =
                  Speedup.diff_outputs inst.App.inst_outputs
                    full_inst.App.inst_outputs
                in
                let drift =
                  match (loss, full_loss) with
                  | Some l, Some fl ->
                      Some
                        (Float.abs (l -. fl)
                        /. Float.max (Float.abs fl) 1e-12)
                  | _ -> None
                in
                (abs_f, full_run.Orion.Engine.ep_bytes_shipped, drift)
          in
          let saved =
            if full_bytes_baseline > 0.0 then
              1.0 -. (r.Orion.Engine.ep_bytes_shipped /. full_bytes_baseline)
            else 0.0
          in
          ( inst,
            r,
            loss,
            {
              run_procs = procs;
              run_comms = r.Orion.Engine.ep_comms;
              run_wall_seconds = r.Orion.Engine.ep_wall_seconds;
              run_entries = r.Orion.Engine.ep_entries;
              run_bytes_shipped = r.Orion.Engine.ep_bytes_shipped;
              run_bytes_full = r.Orion.Engine.ep_bytes_full;
              run_bytes_saved_fraction = saved;
              run_bytes_by_array = r.Orion.Engine.ep_bytes_by_array;
              run_policy_by_array = r.Orion.Engine.ep_policy_by_array;
              run_speedup =
                base /. Float.max r.Orion.Engine.ep_wall_seconds 1e-12;
              run_straggler_ratio =
                Option.map (fun m -> m.Orion.Metrics.straggler_ratio) overall;
              run_barrier_wait_fraction =
                Option.map
                  (fun m -> m.Orion.Metrics.barrier_wait_fraction)
                  overall;
              run_max_abs_vs_sim = max_abs;
              run_max_rel_vs_sim = max_rel;
              run_equal_vs_sim = equal;
              run_max_abs_vs_full = max_abs_vs_full;
              run_equal_vs_full = max_abs_vs_full = 0.0;
              run_loss = loss;
              run_loss_drift_vs_full = loss_drift;
            } )
        in
        let full_inst, full_run, full_loss, full_row =
          measure ~comms:"full" ~full:None
        in
        let policy_rows =
          List.filter_map
            (fun comms ->
              if comms = "full" then None
              else
                let _, _, _, row =
                  measure ~comms ~full:(Some (full_inst, full_run, full_loss))
                in
                Some row)
            comms
        in
        full_row :: policy_rows)
      procs
  in
  {
    res_app = app.App.app_name;
    res_strategy = !strategy;
    res_model = !model;
    res_runs = runs;
  }

let opt_float = function Some v -> Report.Float v | None -> Report.Null

let run_json (r : run) : Report.json =
  Report.Obj
    [
      ("procs", Report.Int r.run_procs);
      ("comms", Report.Str r.run_comms);
      ("wall_seconds", Report.Float r.run_wall_seconds);
      ("entries", Report.Int r.run_entries);
      ("bytes_shipped", Report.Float r.run_bytes_shipped);
      ("bytes_full", Report.Float r.run_bytes_full);
      ("bytes_saved_fraction", Report.Float r.run_bytes_saved_fraction);
      ( "bytes_by_array",
        Report.Obj
          (List.map (fun (n, b) -> (n, Report.Float b)) r.run_bytes_by_array)
      );
      ( "policy_by_array",
        Report.Obj
          (List.map (fun (n, p) -> (n, Report.Str p)) r.run_policy_by_array)
      );
      ("speedup", Report.Float r.run_speedup);
      ("straggler_ratio", opt_float r.run_straggler_ratio);
      ("barrier_wait_fraction", opt_float r.run_barrier_wait_fraction);
      ("max_abs_vs_sim", Report.Float r.run_max_abs_vs_sim);
      ("max_rel_vs_sim", Report.Float r.run_max_rel_vs_sim);
      ("equal_vs_sim", Report.Bool r.run_equal_vs_sim);
      ("max_abs_vs_full", Report.Float r.run_max_abs_vs_full);
      ("equal_vs_full", Report.Bool r.run_equal_vs_full);
      ("loss", opt_float r.run_loss);
      ("loss_drift_vs_full", opt_float r.run_loss_drift_vs_full);
    ]

let app_result_json (a : app_result) : Report.json =
  Report.Obj
    [
      ("app", Report.Str a.res_app);
      ("strategy", Report.Str a.res_strategy);
      ("model", Report.Str a.res_model);
      ("runs", Report.List (List.map run_json a.res_runs));
    ]

let run (common : Run_spec.common) apps ~transport ~procs ~comms :
    app_result list * Report.json =
  let comms =
    (* normalized and deduplicated; the full baseline always runs *)
    List.fold_left
      (fun acc c ->
        let c = normalize_spec c in
        if List.mem c acc then acc else acc @ [ c ])
      [] comms
  in
  let results =
    List.map (fun app -> bench_app common app ~transport ~procs ~comms) apps
  in
  let payload =
    Report.Obj
      [
        ("available_cores", Report.Int (Domain.recommended_domain_count ()));
        ( "transport",
          Report.Str (Orion.Engine.transport_to_string transport) );
        ("passes", Report.Int common.passes);
        ("scale", Report.Float common.scale);
        ("comms", Report.List (List.map (fun c -> Report.Str c) comms));
        ("apps", Report.List (List.map app_result_json results));
      ]
  in
  (results, payload)

let print_results (results : app_result list) =
  List.iter
    (fun a ->
      Printf.printf "%s (%s, %s):\n" a.res_app a.res_strategy a.res_model;
      List.iter
        (fun r ->
          let tel =
            match (r.run_straggler_ratio, r.run_barrier_wait_fraction) with
            | Some s, Some b ->
                Printf.sprintf "  straggler %.2f  barrier %4.1f%%" s
                  (100.0 *. b)
            | _ -> ""
          in
          let vs_full =
            if r.run_comms = "full" then ""
            else if r.run_equal_vs_full then "  == full"
            else
              Printf.sprintf "  drift vs full %.3e%s" r.run_max_abs_vs_full
                (match r.run_loss_drift_vs_full with
                | Some d -> Printf.sprintf " (loss %.3e)" d
                | None -> "")
          in
          Printf.printf
            "  %d proc(s) %-12s: %8.4fs  speedup %5.2fx  shipped %9.0f B \
             (saved %4.1f%%)  %s%s%s\n"
            r.run_procs r.run_comms r.run_wall_seconds r.run_speedup
            r.run_bytes_shipped
            (100.0 *. r.run_bytes_saved_fraction)
            (if r.run_equal_vs_sim then "results match sim"
             else
               Printf.sprintf "MISMATCH vs sim (max abs %.3e rel %.3e)"
                 r.run_max_abs_vs_sim r.run_max_rel_vs_sim)
            vs_full tel)
        a.res_runs)
    results
