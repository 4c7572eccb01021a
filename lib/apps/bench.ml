(* One front door for the three benchmark suites.  Each suite keeps
   its own result types and payload shape (CI asserts on them), but
   every envelope written here also carries a uniform "rows" list with
   the same columns — app, mode, workers, comms policy, wall seconds,
   bytes shipped/full — so downstream tooling can read any
   BENCH_*.json without knowing which suite produced it. *)

module Report = Orion.Report
module App = Orion.App

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

let mode_to_string = function
  | `Speedup -> "speedup"
  | `Speedup_distributed -> "speedup-distributed"
  | `Convergence -> "convergence"

let mode_of_string = function
  | "speedup" -> Some `Speedup
  | "speedup-distributed" -> Some `Speedup_distributed
  | "convergence" -> Some `Convergence
  | _ -> None

let default_out = function
  | `Speedup -> "BENCH_parallel.json"
  | `Speedup_distributed -> "BENCH_distributed.json"
  | `Convergence -> "BENCH_convergence.json"

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

let opt_float = function Some v -> Report.Float v | None -> Report.Null

let row_json (r : row) : Report.json =
  Report.Obj
    [
      ("app", Report.Str r.row_app);
      ("mode", Report.Str r.row_mode);
      ("workers", Report.Int r.row_workers);
      ("comms", Report.Str r.row_comms);
      ("wall_seconds", Report.Float r.row_wall_seconds);
      ("speedup", opt_float r.row_speedup);
      ("loss", opt_float r.row_loss);
      ("bytes_shipped", Report.Float r.row_bytes_shipped);
      ("bytes_full", Report.Float r.row_bytes_full);
      ("bytes_saved_fraction", Report.Float r.row_bytes_saved_fraction);
      ( "policy_by_array",
        Report.Obj
          (List.map (fun (n, p) -> (n, Report.Str p)) r.row_policy_by_array)
      );
      ( "ok",
        match r.row_ok with Some b -> Report.Bool b | None -> Report.Null );
    ]

let speedup_rows (results : Speedup.app_result list) : row list =
  List.concat_map
    (fun (a : Speedup.app_result) ->
      List.map
        (fun (r : Speedup.run) ->
          {
            row_app = a.Speedup.res_app;
            row_mode = "parallel";
            row_workers = r.Speedup.run_domains;
            row_comms = r.Speedup.run_comms;
            row_wall_seconds = r.Speedup.run_wall_seconds;
            row_speedup = Some r.Speedup.run_speedup;
            row_loss = None;
            row_bytes_shipped = r.Speedup.run_bytes_shipped;
            row_bytes_full = r.Speedup.run_bytes_full;
            row_bytes_saved_fraction = 0.0;
            row_policy_by_array = [];
            row_ok = Some r.Speedup.run_equal_vs_sim;
          })
        a.Speedup.res_runs)
    results

let dist_rows (results : Dist_bench.app_result list) : row list =
  List.concat_map
    (fun (a : Dist_bench.app_result) ->
      List.map
        (fun (r : Dist_bench.run) ->
          {
            row_app = a.Dist_bench.res_app;
            row_mode = "distributed";
            row_workers = r.Dist_bench.run_procs;
            row_comms = r.Dist_bench.run_comms;
            row_wall_seconds = r.Dist_bench.run_wall_seconds;
            row_speedup = Some r.Dist_bench.run_speedup;
            row_loss = r.Dist_bench.run_loss;
            row_bytes_shipped = r.Dist_bench.run_bytes_shipped;
            row_bytes_full = r.Dist_bench.run_bytes_full;
            row_bytes_saved_fraction = r.Dist_bench.run_bytes_saved_fraction;
            row_policy_by_array = r.Dist_bench.run_policy_by_array;
            row_ok = Some r.Dist_bench.run_equal_vs_sim;
          })
        a.Dist_bench.res_runs)
    results

let convergence_rows (results : Convergence.result list) : row list =
  List.map
    (fun (r : Convergence.result) ->
      let final =
        match List.rev r.Convergence.cv_points with
        | p :: _ -> Some p
        | [] -> None
      in
      {
        row_app = r.Convergence.cv_app;
        row_mode = r.Convergence.cv_mode;
        row_workers = r.Convergence.cv_domains;
        row_comms = r.Convergence.cv_comms;
        row_wall_seconds =
          (match final with
          | Some p -> p.Convergence.pt_wall
          | None -> 0.0);
        row_speedup = None;
        row_loss = Option.map (fun p -> p.Convergence.pt_loss) final;
        row_bytes_shipped = r.Convergence.cv_bytes_shipped;
        row_bytes_full = r.Convergence.cv_bytes_full;
        row_bytes_saved_fraction =
          (if r.Convergence.cv_bytes_full > 0.0 then
             1.0
             -. (r.Convergence.cv_bytes_shipped /. r.Convergence.cv_bytes_full)
           else 0.0);
        row_policy_by_array = [];
        row_ok = None;
      })
    results

(* append the uniform rows to a suite's payload object *)
let with_rows (payload : Report.json) (rows : row list) : Report.json =
  let rows_field = ("rows", Report.List (List.map row_json rows)) in
  match payload with
  | Report.Obj fields -> Report.Obj (fields @ [ rows_field ])
  | other -> Report.Obj [ ("payload", other); rows_field ]

let write_file out contents =
  let oc = open_out out in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let run_convergence common apps backends ~print : Convergence.result list =
  List.concat_map
    (fun (a : App.t) ->
      if Option.is_none a.App.app_loss then begin
        Printf.eprintf "bench convergence: app %s declares no loss (skipped)\n"
          a.App.app_name;
        []
      end
      else
        List.map
          (fun backend ->
            let r = Convergence.run (Run_spec.make common a backend) in
            if print then
              List.iter
                (fun (p : Convergence.point) ->
                  Printf.printf "%-4s %-10s pass %2d | loss %14.6f | %8.4f s\n"
                    r.Convergence.cv_app r.Convergence.cv_mode
                    p.Convergence.pt_pass p.Convergence.pt_loss
                    p.Convergence.pt_wall)
                r.Convergence.cv_points;
            r)
          backends)
    apps

type suite =
  [ `Speedup of int list
  | `Speedup_distributed of Orion.Engine.transport * int list * string list
  | `Convergence of Orion.Engine.mode list ]

let run ~out ?(print = true) common apps (suite : suite) : row list =
  let kind, payload, rows =
    match suite with
    | `Speedup domains ->
        let results, payload = Speedup.run common apps ~domains in
        if print then Speedup.print_results results;
        ("bench-speedup", payload, speedup_rows results)
    | `Speedup_distributed (transport, procs, comms) ->
        let results, payload =
          Dist_bench.run common apps ~transport ~procs ~comms
        in
        if print then Dist_bench.print_results results;
        ("bench-speedup-distributed", payload, dist_rows results)
    | `Convergence backends ->
        let results = run_convergence common apps backends ~print in
        ("bench-convergence", Convergence.payload results,
         convergence_rows results)
  in
  write_file out (Report.emit ~kind (with_rows payload rows));
  if print then Printf.printf "wrote %s\n" out;
  rows
