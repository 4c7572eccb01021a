(* Side-by-side static vs measured candidate costing.  The static
   planner's candidate costs are communication heuristics in
   elements-moved units; here each candidate gets a calibrated cost in
   seconds: cand_cost * measured sec/entry (comm term) plus a compute
   term — observed max-partition seconds for the strategy that ran
   (its real imbalance), total/parts for the alternatives the static
   model assumes balanced.  A high measured straggler ratio can
   therefore flip the decision toward a candidate the static model
   ranked worse. *)

module Plan = Orion.Plan

type measured_candidate = {
  mc_candidate : Plan.candidate;
  mc_measured_cost : float;
  mc_measured_chosen : bool;
}

type report = {
  mr_app : string;
  mr_mode : string;
  mr_workers : int;
  mr_pass : int;
  mr_table : Cost_table.t;
  mr_candidates : measured_candidate list;
  mr_static_choice : string;
  mr_measured_choice : string;
  mr_flipped : bool;
}

let recost (table : Cost_table.t) (plan : Plan.t) =
  let parts = max 1 (Array.length table.Cost_table.ct_parts) in
  let costed =
    List.map
      (fun (c : Plan.candidate) ->
        let compute =
          if c.Plan.cand_chosen then table.Cost_table.ct_max_seconds
          else table.Cost_table.ct_total_seconds /. float_of_int parts
        in
        let comm = c.Plan.cand_cost *. table.Cost_table.ct_sec_per_entry in
        (c, compute +. comm))
      plan.Plan.provenance.Plan.considered
  in
  let best =
    List.fold_left
      (fun acc (_, cost) ->
        match acc with None -> Some cost | Some b -> Some (Float.min b cost))
      None costed
  in
  List.map
    (fun (c, cost) ->
      {
        mc_candidate = c;
        mc_measured_cost = cost;
        mc_measured_chosen = (match best with Some b -> cost <= b | None -> false);
      })
    costed

let choice_label pred candidates ~default =
  match List.find_opt pred candidates with
  | Some mc -> Plan.strategy_to_string mc.mc_candidate.Plan.cand_strategy
  | None -> default

let run_app (spec : Orion_apps.Run_spec.t) =
  let module S = Orion_apps.Run_spec in
  let inst = S.instance spec in
  let plan =
    Orion.analyze_loop inst.Orion.App.inst_session inst.Orion.App.inst_loop
  in
  let r = S.run ~telemetry:true spec inst in
  match r.Orion.Engine.ep_telemetry with
  | None -> Error "run produced no telemetry"
  | Some sm -> (
      let pass = spec.S.common.S.passes - 1 in
      match
        Cost_table.of_costs ~sp:r.Orion.Engine.ep_space_parts ~pass
          sm.Orion.Telemetry.sm_block_costs
      with
      | None -> Error "run produced no block-cost measurements"
      | Some table ->
          let candidates = recost table plan in
          let static_choice =
            choice_label
              (fun mc -> mc.mc_candidate.Plan.cand_chosen)
              candidates
              ~default:(Plan.strategy_to_string plan.Plan.strategy)
          in
          let measured_choice =
            choice_label
              (fun mc -> mc.mc_measured_chosen)
              candidates ~default:static_choice
          in
          Ok
            {
              mr_app = spec.S.app.Orion.App.app_name;
              mr_mode =
                (match spec.S.backend with
                | `Parallel d -> Printf.sprintf "parallel (%d domains)" d
                | mode -> Orion.Engine.mode_to_string mode);
              mr_workers = S.workers spec;
              mr_pass = pass;
              mr_table = table;
              mr_candidates = candidates;
              mr_static_choice = static_choice;
              mr_measured_choice = measured_choice;
              mr_flipped = static_choice <> measured_choice;
            })

let pp_report fmt r =
  Fmt.pf fmt "=== measured decision tree: app %s, %s ===@." r.mr_app r.mr_mode;
  Cost_table.pp fmt r.mr_table;
  Fmt.pf fmt "@.candidates (static cost | measured, calibrated to seconds)@.";
  List.iter
    (fun mc ->
      Fmt.pf fmt "  %-24s static %8.1f%s | measured %.4f s%s@."
        (Plan.strategy_to_string mc.mc_candidate.Plan.cand_strategy)
        mc.mc_candidate.Plan.cand_cost
        (if mc.mc_candidate.Plan.cand_chosen then " <= static" else
           "          ")
        mc.mc_measured_cost
        (if mc.mc_measured_chosen then " <= measured" else ""))
    r.mr_candidates;
  if r.mr_flipped then
    Fmt.pf fmt
      "@.decision FLIPPED under measurement: static chose %s, measured \
       costs prefer %s@."
      r.mr_static_choice r.mr_measured_choice
  else
    Fmt.pf fmt "@.no flip: static and measured both choose %s@."
      r.mr_static_choice

let report_to_string r = Fmt.str "%a" pp_report r

let report_json r : Orion.Report.json =
  let open Orion.Report in
  Obj
    [
      ("app", Str r.mr_app);
      ("mode", Str r.mr_mode);
      ("workers", Int r.mr_workers);
      ("pass", Int r.mr_pass);
      ("table", Cost_table.to_json r.mr_table);
      ( "candidates",
        List
          (List.map
             (fun mc ->
               Obj
                 [
                   ( "strategy",
                     Str
                       (Plan.strategy_to_string
                          mc.mc_candidate.Plan.cand_strategy) );
                   ("static_cost", Float mc.mc_candidate.Plan.cand_cost);
                   ("static_chosen", Bool mc.mc_candidate.Plan.cand_chosen);
                   ("measured_cost_seconds", Float mc.mc_measured_cost);
                   ("measured_chosen", Bool mc.mc_measured_chosen);
                 ])
             r.mr_candidates) );
      ("static_choice", Str r.mr_static_choice);
      ("measured_choice", Str r.mr_measured_choice);
      ("flipped", Bool r.mr_flipped);
    ]
