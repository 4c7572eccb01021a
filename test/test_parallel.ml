(* Tests for the OCaml 5 domain-pool executor ({!Domain_exec}) and the
   [`Parallel] mode of {!Orion.Engine}: happens-before enforcement,
   exception propagation, the non-canonical-layout deadlock regression,
   and element-wise equivalence + determinism of parallel app runs
   against the simulated executor. *)

open Orion_dsm
open Orion_runtime
module Verify = Orion_verify.Verify

let tc = Alcotest.test_case
let () = Orion_apps.Registry.ensure ()

(* a deterministic pseudo-random sparse iteration space *)
let mk_iter ?(rows = 16) ?(cols = 15) ?(n = 200) () =
  let n = min n (rows * cols / 2) in
  let entries = ref [] in
  let rng = Orion_data.Rng.create 987654321 in
  let seen = Hashtbl.create 64 in
  let added = ref 0 in
  while !added < n do
    let i = Orion_data.Rng.int rng rows and j = Orion_data.Rng.int rng cols in
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      entries := ([| i; j |], float_of_int ((i * cols) + j)) :: !entries;
      incr added
    end
  done;
  Dist_array.of_entries ~name:"iter" ~dims:[| rows; cols |] ~default:0.0
    !entries

(* bodies that append every executed key to one mutex-guarded log; the
   log order is a real-time interleaving of the pool's execution *)
let logging_bodies n =
  let m = Mutex.create () in
  let log = ref [] in
  let body ~key ~value:_ =
    Mutex.lock m;
    log := Array.copy key :: !log;
    Mutex.unlock m
  in
  (Array.make n body, fun () -> Array.of_list (List.rev !log))

(* map each key of [sched] to its (space, time) block, plus block sizes *)
let block_index (sched : float Schedule.t) =
  let tbl = Hashtbl.create 256 in
  let sizes = Hashtbl.create 64 in
  for s = 0 to sched.Schedule.space_parts - 1 do
    for t = 0 to sched.Schedule.time_parts - 1 do
      let b = Schedule.block sched ~space:s ~time:t in
      Hashtbl.replace sizes (s, t) (Array.length b.Schedule.entries);
      Array.iter
        (fun (key, _) -> Hashtbl.replace tbl (Array.to_list key) (s, t))
        b.Schedule.entries
    done
  done;
  (tbl, sizes)

(* ------------------------------------------------------------------ *)
(* Domain_exec: happens-before enforcement                             *)
(* ------------------------------------------------------------------ *)

(* ordered 2D: when the first entry of block (s, t) executes, blocks
   (s-1, t) and (s, t-1) must already be complete *)
let test_2d_ordered_happens_before () =
  let iter = mk_iter () in
  let sched =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:4
  in
  let bodies, get_log = logging_bodies 4 in
  let stats =
    Domain_exec.run_schedule ~domains:4 ~model:Domain_exec.M_2d_ordered sched
      ~bodies
  in
  Alcotest.(check int) "every entry ran" (Dist_array.count iter)
    stats.Domain_exec.entries_run;
  let tbl, sizes = block_index sched in
  let completed = Hashtbl.create 64 in
  let count bt = try Hashtbl.find completed bt with Not_found -> 0 in
  let size bt = try Hashtbl.find sizes bt with Not_found -> 0 in
  Array.iter
    (fun key ->
      let s, t = Hashtbl.find tbl (Array.to_list key) in
      if count (s, t) = 0 then begin
        if s > 0 then
          Alcotest.(check int)
            (Printf.sprintf "(%d,%d) started only after (%d,%d) done" s t
               (s - 1) t)
            (size (s - 1, t))
            (count (s - 1, t));
        if t > 0 then
          Alcotest.(check int)
            (Printf.sprintf "(%d,%d) started only after (%d,%d) done" s t s
               (t - 1))
            (size (s, t - 1))
            (count (s, t - 1))
      end;
      Hashtbl.replace completed (s, t) (count (s, t) + 1))
    (get_log ())

(* 1D: no cross-block order; the pass still runs everything exactly once *)
let test_1d_runs_everything_once () =
  let iter = mk_iter () in
  let sched = Schedule.partition_1d iter ~space_dim:0 ~space_parts:5 in
  let bodies, get_log = logging_bodies 3 in
  let stats =
    Domain_exec.run_schedule ~domains:3 ~model:Domain_exec.M_1d sched ~bodies
  in
  Alcotest.(check int) "all entries ran" (Dist_array.count iter)
    stats.Domain_exec.entries_run;
  Alcotest.(check int) "all blocks ran" 5 stats.Domain_exec.blocks_run;
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun key ->
      let k = Array.to_list key in
      Alcotest.(check bool) "key not executed twice" false (Hashtbl.mem seen k);
      Hashtbl.add seen k ())
    (get_log ())

(* regression: lda at 8 workers yields tp = 15 < sp * depth; the naive
   mod-sp rotation edge formed a cycle there and deadlocked the pool *)
let test_2d_unordered_non_canonical_layout_terminates () =
  let iter = mk_iter ~rows:16 ~cols:15 ~n:110 () in
  let sched =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:8
      ~time_parts:15
  in
  let bodies, _ = logging_bodies 4 in
  let stats =
    Domain_exec.run_schedule ~domains:4
      ~model:(Domain_exec.M_2d_unordered { depth = 1 })
      sched ~bodies
  in
  Alcotest.(check int) "pass terminated with every entry run"
    (Dist_array.count iter) stats.Domain_exec.entries_run

(* unordered 2D, canonical layout: same-time-partition blocks never
   overlap — partition rotation serializes them *)
let test_2d_unordered_serializes_time_partitions () =
  let iter = mk_iter ~rows:16 ~cols:16 ~n:110 () in
  let sched =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let bodies, get_log = logging_bodies 4 in
  ignore
    (Domain_exec.run_schedule ~domains:4
       ~model:(Domain_exec.M_2d_unordered { depth = 2 })
       sched ~bodies);
  let tbl, sizes = block_index sched in
  (* per time partition, the log must show each block's entries as a
     contiguous run: a block only starts after its predecessor (in
     rotation order) has completed *)
  let open_block = Hashtbl.create 16 in
  let done_in = Hashtbl.create 16 in
  Array.iter
    (fun key ->
      let s, t = Hashtbl.find tbl (Array.to_list key) in
      (match Hashtbl.find_opt open_block t with
      | Some (s', n) when s' = s -> Hashtbl.replace open_block t (s, n + 1)
      | Some (s', n) ->
          Alcotest.(check int)
            (Printf.sprintf "block (%d,%d) complete before (%d,%d) starts" s' t
               s t)
            (try Hashtbl.find sizes (s', t) with Not_found -> 0)
            n;
          Hashtbl.replace done_in t ((s', n) :: (try Hashtbl.find done_in t with Not_found -> []));
          Hashtbl.replace open_block t (s, 1)
      | None -> Hashtbl.replace open_block t (s, 1)))
    (get_log ())

(* an exception in any body cancels the pass and re-raises *)
exception Boom

let test_exception_propagates () =
  let iter = mk_iter () in
  let sched = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let body ~key:_ ~value = if value > 100.0 then raise Boom in
  Alcotest.check_raises "body exception reaches the caller" Boom (fun () ->
      ignore
        (Domain_exec.run_schedule ~domains:4 ~model:Domain_exec.M_1d sched
           ~bodies:(Array.make 4 body)))

(* domain count is clamped to the number of bodies provided *)
let test_domains_clamped_to_bodies () =
  let iter = mk_iter () in
  let sched = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let bodies, _ = logging_bodies 3 in
  let stats =
    Domain_exec.run_schedule ~domains:8 ~model:Domain_exec.M_1d sched ~bodies
  in
  Alcotest.(check int) "clamped to 3 domains" 3 stats.Domain_exec.domains;
  Alcotest.(check bool) "steal counter is sane" true
    (stats.Domain_exec.steals >= 0)

(* ------------------------------------------------------------------ *)
(* Engine: parallel runs match the simulated executor element-wise     *)
(* ------------------------------------------------------------------ *)

let find_app name =
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.failf "app %s missing from registry" name

let run_app (app : Orion.App.t) ~mode ~passes =
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 () in
  ignore (Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes ());
  inst.Orion.App.inst_outputs

let run_app_report (app : Orion.App.t) ~mode ~passes =
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 () in
  let r = Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes () in
  (inst.Orion.App.inst_outputs, r)

let check_outputs ~what ~tolerance a b =
  List.iter2
    (fun (name_a, arr_a) (_, arr_b) ->
      let d = Verify.diff_arrays name_a arr_a arr_b in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equal (max abs %.3e, max rel %.3e)" what
           name_a d.Verify.d_max_abs d.Verify.d_max_rel)
        true
        (Verify.diff_ok ~tolerance d))
    a b

let parallel_matches_sim name () =
  let app = find_app name in
  let sim = run_app app ~mode:`Sim ~passes:2 in
  let par = run_app app ~mode:(`Parallel 4) ~passes:2 in
  check_outputs
    ~what:(name ^ " parallel(4) vs sim")
    ~tolerance:app.Orion.App.app_tolerance sim par

(* the domain pool runs compiled kernels by default; with
   ORION_NO_COMPILE it falls back to the interpreter and must produce
   the same results — so compilation is a pure performance change *)
let compiled_matches_interpreted name () =
  let app = find_app name in
  let outs_c, rep_c = run_app_report app ~mode:(`Parallel 4) ~passes:2 in
  Alcotest.(check bool) "kernels compiled" true rep_c.Orion.Engine.ep_compiled;
  let old = try Unix.getenv "ORION_NO_COMPILE" with Not_found -> "" in
  Unix.putenv "ORION_NO_COMPILE" "1";
  let outs_i, rep_i =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "ORION_NO_COMPILE" old)
      (fun () -> run_app_report app ~mode:(`Parallel 4) ~passes:2)
  in
  Alcotest.(check bool)
    "kernels interpreted" false rep_i.Orion.Engine.ep_compiled;
  check_outputs
    ~what:(name ^ " compiled vs interpreted")
    ~tolerance:app.Orion.App.app_tolerance outs_c outs_i

(* three parallel runs of the same app are deterministic: bitwise for
   direct-update apps; buffered slr merges per-domain shadows whose
   accumulation order follows the (nondeterministic) block-to-domain
   assignment, so its tolerance applies *)
let parallel_deterministic name () =
  let app = find_app name in
  let r1 = run_app app ~mode:(`Parallel 4) ~passes:2 in
  let r2 = run_app app ~mode:(`Parallel 4) ~passes:2 in
  let r3 = run_app app ~mode:(`Parallel 4) ~passes:2 in
  let tolerance = app.Orion.App.app_tolerance in
  check_outputs ~what:(name ^ " run1 vs run2") ~tolerance r1 r2;
  check_outputs ~what:(name ^ " run1 vs run3") ~tolerance r1 r3

(* ------------------------------------------------------------------ *)
(* Telemetry: real runs yield wall-clock timelines and metrics         *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* a real domain-pool run produces a merged timeline with nonzero
   compute time, finite per-pass metrics, and a measured cost entry per
   (pass, t, sp) block *)
let test_parallel_telemetry () =
  let app = find_app "gbt" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 ()
  in
  let passes = 2 in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst ~mode:(`Parallel 2)
      ~passes ~telemetry:true ()
  in
  match r.Orion.Engine.ep_telemetry with
  | None -> Alcotest.fail "parallel run produced no telemetry"
  | Some sm ->
      Alcotest.(check string) "mode" "parallel" sm.Orion.Telemetry.sm_mode;
      Alcotest.(check int) "workers" 2 sm.Orion.Telemetry.sm_workers;
      Alcotest.(check int) "no drops" 0 sm.Orion.Telemetry.sm_dropped;
      Alcotest.(check bool) "timeline is non-empty" true
        (Orion.Trace.length sm.Orion.Telemetry.sm_trace > 0);
      Alcotest.(check int) "one metrics row per pass" passes
        (List.length sm.Orion.Telemetry.sm_pass_metrics);
      let overall = sm.Orion.Telemetry.sm_overall in
      Alcotest.(check bool) "nonzero compute time" true
        (overall.Orion.Metrics.compute_sec > 0.0);
      Alcotest.(check bool) "finite straggler ratio" true
        (Float.is_finite overall.Orion.Metrics.straggler_ratio
        && overall.Orion.Metrics.straggler_ratio >= 1.0);
      let costs = sm.Orion.Telemetry.sm_block_costs in
      Alcotest.(check bool) "cost table is non-empty" true (costs <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool) "cost pass within run" true
            (c.Orion.Telemetry.bc_pass >= 0
            && c.Orion.Telemetry.bc_pass < passes);
          Alcotest.(check bool) "cost is positive" true
            (c.Orion.Telemetry.bc_seconds > 0.0))
        costs;
      Alcotest.(check int) "cost entries account for every entry run"
        r.Orion.Engine.ep_entries
        (List.fold_left
           (fun acc c -> acc + c.Orion.Telemetry.bc_entries)
           0 costs)

(* telemetry off: no summary, and nothing recorded *)
let test_parallel_telemetry_disabled () =
  let app = find_app "gbt" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 ()
  in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst ~mode:(`Parallel 2)
      ~passes:1 ~telemetry:false ()
  in
  Alcotest.(check bool) "no telemetry summary" true
    (r.Orion.Engine.ep_telemetry = None)

(* golden for the `orion trace --mode parallel` envelope: versioned
   metadata before the events, drop count surfaced *)
let test_trace_envelope_golden () =
  let app = find_app "gbt" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 ()
  in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst ~mode:(`Parallel 2)
      ~passes:1 ~telemetry:true ()
  in
  let sm = Option.get r.Orion.Engine.ep_telemetry in
  let chrome = Orion.Telemetry.to_chrome_json sm in
  let expected_prefix =
    Printf.sprintf
      "{\"schema_version\":%d,\"kind\":\"trace\",\"dropped\":0,\"displayTimeUnit\":\"ms\",\"mode\":\"parallel\",\"workers\":2,"
      Orion.Report.schema_version
  in
  Alcotest.(check string) "envelope prefix" expected_prefix
    (String.sub chrome 0 (String.length expected_prefix));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains ~needle chrome))
    [
      "\"overall\":"; "\"per_pass\":"; "\"block_costs\":"; "\"traceEvents\":[";
    ]

(* ------------------------------------------------------------------ *)

(* the instance carries its scale; [Engine.run ~scale] may only echo it *)
let test_scale_must_echo_instance () =
  let app = find_app "gbt" in
  let inst =
    app.Orion.App.app_make ~scale:2.0 ~num_machines:2 ~workers_per_machine:2 ()
  in
  Alcotest.(check (float 0.0)) "instance records its scale" 2.0
    inst.Orion.App.inst_scale;
  Alcotest.check_raises "a different ~scale is rejected"
    (Invalid_argument
       "Engine.run: ~scale 1 differs from the instance's scale 2")
    (fun () ->
      ignore
        (Orion.Engine.run inst.Orion.App.inst_session inst ~mode:`Sim
           ~scale:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Compiled kernels stay on the unboxed path                           *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words one compiled pass allocates per entry, on the
   kernel the pool compiles (externs without hooks).  Allocation is
   deterministic for a given build, so a kernel that silently falls
   back to the boxed path — boxed subscripts, a key array per slice
   element — shows up as a jump in this count. *)
let kernel_words_per_entry name =
  let app = find_app name in
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 () in
  match Orion.Engine.compile_kernel inst inst.Orion.App.inst_env with
  | None -> Alcotest.failf "the %s loop body does not compile" name
  | Some kernel ->
      let entries =
        Array.of_list
          (List.rev
             (Dist_array.fold
                (fun acc key v -> (key, v) :: acc)
                [] inst.Orion.App.inst_iter))
      in
      let pass () =
        Array.iter
          (fun (key, value) -> Orion.Compile.run kernel ~key ~value)
          entries
      in
      pass ();
      let w0 = Gc.minor_words () in
      pass ();
      (Gc.minor_words () -. w0) /. float_of_int (Array.length entries)

let kernel_allocation_bound name ~bound () =
  let words = kernel_words_per_entry name in
  Alcotest.(check bool)
    (Printf.sprintf "%s kernel allocates %.1f words/entry (bound %.0f)" name
       words bound)
    true (words <= bound)

let () =
  Alcotest.run "parallel"
    [
      ( "kernel_alloc",
        [
          (* 268 and 130 words/entry on the unboxed path; 440 and 366
             when every access took the boxed one *)
          tc "mf kernel stays unboxed" `Quick
            (kernel_allocation_bound "mf" ~bound:300.0);
          tc "lda kernel stays unboxed" `Quick
            (kernel_allocation_bound "lda" ~bound:160.0);
        ] );
      ( "domain_exec",
        [
          tc "2d-ordered happens-before" `Quick test_2d_ordered_happens_before;
          tc "1d runs everything once" `Quick test_1d_runs_everything_once;
          tc "non-canonical unordered layout terminates" `Quick
            test_2d_unordered_non_canonical_layout_terminates;
          tc "unordered serializes time partitions" `Quick
            test_2d_unordered_serializes_time_partitions;
          tc "exception propagates" `Quick test_exception_propagates;
          tc "domains clamped to bodies" `Quick test_domains_clamped_to_bodies;
        ] );
      ( "engine_equivalence",
        [
          tc "mf" `Slow (parallel_matches_sim "mf");
          tc "slr" `Slow (parallel_matches_sim "slr");
          tc "lda" `Slow (parallel_matches_sim "lda");
          tc "gbt" `Quick (parallel_matches_sim "gbt");
          tc "~scale must echo the instance" `Quick
            test_scale_must_echo_instance;
        ] );
      ( "no_compile_fallback",
        [
          tc "mf" `Slow (compiled_matches_interpreted "mf");
          tc "gbt" `Quick (compiled_matches_interpreted "gbt");
        ] );
      ( "determinism",
        [
          tc "mf" `Slow (parallel_deterministic "mf");
          tc "slr" `Slow (parallel_deterministic "slr");
          tc "lda" `Slow (parallel_deterministic "lda");
          tc "gbt" `Quick (parallel_deterministic "gbt");
        ] );
      ( "telemetry",
        [
          tc "real run yields metrics and block costs" `Quick
            test_parallel_telemetry;
          tc "disabled leaves no summary" `Quick
            test_parallel_telemetry_disabled;
          tc "chrome envelope golden" `Quick test_trace_envelope_golden;
        ] );
    ]
