(* Orion training benchmark.

     harness --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's dataset from the seed, then runs training
   calls back to back for S seconds, one job at a time, and checks every
   call against a simulated ([`Sim]) run of the same instance shape.
   Every call into the Orion libraries is timed from outside:
   [Registry.materialize], [Orion.analyze_loop], [Orion.compile],
   [Engine.compile_kernel], [Compile.run], [Engine.run], the store's
   [Loader] and [Checkpoint], and the net layer's [Policy] and [Wire].

   The last line of standard output is one JSON object: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].
   The traced run also records an in-memory span around each outside
   call and writes them out when it ends; the per-layer numbers are
   derived from those spans and the run reports' telemetry.  A layer
   that a workload bypasses (the socket runtime under the domain pool,
   the domain pool under the socket runtime) reports 0.

   Run it through perfbench/run.py, which builds it and pins the
   environment this program checks for. *)

module App = Orion.App
module Engine = Orion.Engine
module Dist_array = Orion.Dist_array
module Telemetry = Orion.Telemetry
module Metrics = Orion.Metrics
module Trace = Orion.Trace
module Report = Orion.Report
module Checkpoint = Orion_store.Checkpoint
module Policy = Orion_net.Policy
module Wire = Orion_net.Wire

exception Setup_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failure s)) fmt

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string;  (** source revision, as run.py found it *)
  perturb : bool;
      (** corrupt the reference on purpose: every call must then fail
          the gate (the self-check's proof that the gate can fail) *)
}

let usage =
  "harness --workload NAME --seed N --seconds S --trace 0|1 [--rev REV] \
   [--data-scale F] [--perturb-reference]"

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and rev = ref "unknown" in
  let data_scale = ref Workloads.default_data_scale and perturb = ref false in
  let num name conv v =
    match conv v with Some x -> x | None -> fail "%s: bad value %S" name v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (num "--seed" int_of_string_opt v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (num "--seconds" float_of_string_opt v);
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          Some
            (match v with
            | "0" -> false
            | "1" -> true
            | _ -> fail "--trace: expected 0 or 1, got %S" v);
        go rest
    | "--rev" :: v :: rest ->
        rev := v;
        go rest
    | "--data-scale" :: v :: rest ->
        data_scale := num "--data-scale" float_of_string_opt v;
        go rest
    | "--perturb-reference" :: rest ->
        perturb := true;
        go rest
    | a :: _ -> fail "unknown or incomplete argument %S\nusage: %s" a usage
  in
  go (List.tl (Array.to_list argv));
  let req name = function
    | Some v -> v
    | None -> fail "missing %s\nusage: %s" name usage
  in
  let name = req "--workload" !workload in
  let data_scale = !data_scale in
  let workload =
    match Workloads.find ~data_scale name with
    | Some w -> w
    | None ->
        fail "unknown workload %S (known: %s)" name
          (String.concat ", "
             (List.map (fun w -> w.Workloads.name) (Workloads.all ~data_scale)))
  in
  {
    workload;
    seed = req "--seed" !seed;
    seconds = req "--seconds" !seconds;
    trace = req "--trace" !trace;
    rev = !rev;
    perturb = !perturb;
  }

(* ------------------------------------------------------------------ *)
(* Pinned environment and host record                                  *)
(* ------------------------------------------------------------------ *)

(* knobs that change what a run does; run.py clears all of them *)
let must_be_unset =
  [
    "ORION_COMMS";
    "ORION_NO_COMPILE";
    "ORION_TELEMETRY";
    "ORION_BENCH_SCALE";
    "ORION_LOG";
    "ORION_DIST_SPAWN";
    "ORION_DIST_ABORT_RANK";
    "ORION_DIST_ABORT_AFTER";
    Orion_apps.Registry.ratings_dir_env;
    Orion_apps.Registry.features_dir_env;
    Orion_apps.Registry.corpus_dir_env;
  ]

(* a hung distributed call fails within this many seconds, leaving the
   run inside its time limit *)
let pinned_timeout = "60"

(* Returns the worker executable every distributed run spawns. *)
let check_env () =
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        fail "%s is set; run the benchmark through perfbench/run.py" v)
    must_be_unset;
  if Sys.getenv_opt Orion_net.Dist_worker.timeout_env <> Some pinned_timeout
  then
    fail "%s must be pinned to %s" Orion_net.Dist_worker.timeout_env
      pinned_timeout;
  match Sys.getenv_opt Orion_net.Dist_master.worker_exe_env with
  | Some exe when Sys.file_exists exe -> (
      match Orion_net.Dist_master.default_spawn () with
      | `Exec p when p = exe -> exe
      | _ -> fail "distributed runs would not spawn %s" exe)
  | _ ->
      fail "%s must name the built orion_worker executable"
        Orion_net.Dist_master.worker_exe_env

let host_json ~rev ~worker : Report.json =
  Report.Obj
    [
      ("cores", Report.Int (Domain.recommended_domain_count ()));
      ("ocaml", Report.Str Sys.ocaml_version);
      ("rev", Report.Str rev);
      ("spawn", Report.Str ("exec:" ^ Filename.basename worker));
    ]

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* VmHWM of this process, in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* this process plus every child it has reaped *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

type snapshot = (string * float Dist_array.partition) list

let snapshot arrays : snapshot =
  List.map (fun (n, a) -> (n, Dist_array.to_partition a)) arrays

(* bitwise when [tol] is [None], else within a relative tolerance *)
let same ~tol a b =
  match tol with
  | None -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Some t ->
      Float.abs (a -. b)
      <= t *. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-12

(* the first difference between two snapshots, if any *)
let mismatch ~tol (got : snapshot) (want : snapshot) =
  let diff_part (name, (g : float Dist_array.partition)) (_, (w : float Dist_array.partition)) =
    let ge = g.Dist_array.pt_entries and we = w.Dist_array.pt_entries in
    if Array.length ge <> Array.length we then
      Some
        (Printf.sprintf "%s has %d entries, expected %d" name
           (Array.length ge) (Array.length we))
    else
      let rec at i =
        if i = Array.length ge then None
        else
          let gk, gv = ge.(i) and wk, wv = we.(i) in
          if gk <> wk then Some (Printf.sprintf "%s: key %d, expected %d" name gk wk)
          else if not (same ~tol gv wv) then
            Some (Printf.sprintf "%s[%d] = %.17g, expected %.17g" name gk gv wv)
          else at (i + 1)
      in
      at 0
  in
  if List.map fst got <> List.map fst want then Some "array names differ"
  else
    List.fold_left2
      (fun acc g w -> match acc with Some _ -> acc | None -> diff_part g w)
      None got want

let perturbed (s : snapshot) : snapshot =
  match s with
  | (name, p) :: rest when Array.length p.Dist_array.pt_entries > 0 ->
      let e = Array.copy p.Dist_array.pt_entries in
      let k, v = e.(0) in
      e.(0) <- (k, v +. 1.0);
      (name, { p with Dist_array.pt_entries = e }) :: rest
  | _ -> fail "reference has nothing to perturb"

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

type reference = { ref_outputs : snapshot; ref_loss : float; ref_sim_time : float }

type call = {
  wall : float;  (** seconds of the [Engine.run] call, timed from outside *)
  cpu : float;
  telemetry_on : bool;
  report : Engine.report option;  (** [None]: the call raised *)
  failure : string option;  (** why the gate rejected the call *)
  loss : float;
}

type ctx = {
  o : opts;
  w : Workloads.t;
  app : App.t;
  tr : Spans.t;
  tmp : string;
  data_dir : string;
  mutable setups : float list;
  mutable first_call_rss : float;
      (** MB: the process's peak RSS through its first training call,
          which runs before anything else of size (the reference too) *)
  mutable ckpt_bytes : int;
  mutable last_model : App.instance option;  (** final model of the last good call *)
  mutable check_failures : string list;  (** failed checks outside training calls *)
}

let materialize ctx =
  match
    Orion_apps.Registry.materialize ctx.w.Workloads.app ~scale:1.0
      ~num_machines:ctx.w.Workloads.machines
      ~workers_per_machine:ctx.w.Workloads.workers_per_machine
  with
  | Some inst -> inst
  | None -> fail "app %s is not registered" ctx.w.Workloads.app

let loss_of ctx inst =
  match ctx.app.App.app_loss with
  | Some f -> f inst
  | None -> fail "app %s declares no loss" ctx.w.Workloads.app

(* one set-up as a user pays it: build the instance (shard load,
   DistArray init, parse) and analyze its loop *)
let setup ctx =
  (* from a compacted heap, as in a fresh [orion run] process *)
  Gc.compact ();
  let inst, s =
    Spans.timed ctx.tr "setup" (fun () ->
        let inst, _ = Spans.timed ctx.tr "apps.materialize" (fun () -> materialize ctx) in
        ignore
          (Spans.timed ctx.tr "analysis.analyze" (fun () ->
               Orion.analyze_loop inst.App.inst_session inst.App.inst_loop));
        inst)
  in
  ctx.setups <- s :: ctx.setups;
  inst

(* the Sim run of the same instance shape every call must equal; its
   time counts in no metric *)
let reference ctx =
  let (outputs, loss, sim_time), _ =
    Spans.timed ctx.tr "reference.sim" (fun () ->
        let inst = materialize ctx in
        let r =
          Engine.run inst.App.inst_session inst ~mode:`Sim
            ~passes:ctx.w.Workloads.passes ()
        in
        (snapshot inst.App.inst_outputs, loss_of ctx inst, r.Engine.ep_sim_time))
  in
  {
    ref_outputs = (if ctx.o.perturb then perturbed outputs else outputs);
    ref_loss = loss;
    ref_sim_time = sim_time;
  }

let save_checkpoint ctx ~dir ~pass inst arrays =
  let path, _ =
    Spans.timed ctx.tr "store.ckpt_save" (fun () ->
        Checkpoint.save ~dir
          (Checkpoint.snapshot ~app:ctx.w.Workloads.app ~scale:1.0 ~pass
             ~total_passes:ctx.w.Workloads.passes
             ~rng:(Orion.Interp.Rng.state inst.App.inst_env.Orion.Interp.rng)
             arrays))
  in
  ctx.ckpt_bytes <- (Unix.stat path).Unix.st_size

(* restore the newest checkpoint in [dir] into a fresh instance; it
   must equal [final] bitwise *)
let restore_check ctx ~dir (final : App.instance) =
  let fresh, _ = Spans.timed ctx.tr "check.materialize" (fun () -> materialize ctx) in
  match
    Spans.timed ctx.tr "store.restore" (fun () ->
        match Checkpoint.latest dir with
        | None -> None
        | Some (_, s) ->
            Checkpoint.restore s fresh.App.inst_arrays;
            Some s.Checkpoint.ck_pass)
  with
  | None, _ -> Some "no checkpoint was written"
  | Some pass, _ when pass <> ctx.w.Workloads.passes ->
      Some (Printf.sprintf "newest checkpoint is pass %d, expected %d" pass
              ctx.w.Workloads.passes)
  | Some _, _ -> (
      match
        mismatch ~tol:None
          (snapshot fresh.App.inst_arrays)
          (snapshot final.App.inst_arrays)
      with
      | Some m -> Some ("checkpoint restore differs from the final model: " ^ m)
      | None -> None)
  | exception Checkpoint.Corrupt { path; reason } ->
      Some (Printf.sprintf "corrupt checkpoint %s: %s" path reason)

let gate ctx reference inst ~loss ~ckpt_dir =
  let reference = Lazy.force reference in
  let tol = ctx.app.App.app_tolerance in
  match mismatch ~tol (snapshot inst.App.inst_outputs) reference.ref_outputs with
  | Some m -> Some ("outputs differ from the Sim reference: " ^ m)
  | None when not (same ~tol loss reference.ref_loss) ->
      Some
        (Printf.sprintf "final loss %.17g, Sim reference %.17g" loss
           reference.ref_loss)
  | None when ctx.w.Workloads.checkpoint_every_pass ->
      restore_check ctx ~dir:ckpt_dir inst
  | None -> None

let training_call ctx reference ~index ~telemetry_on =
  let w = ctx.w in
  let inst = setup ctx in
  let ckpt_dir = Filename.concat ctx.tmp (Printf.sprintf "ckpt-%d" index) in
  let checkpoint =
    if w.Workloads.checkpoint_every_pass then
      Some
        ( 1,
          fun ~pass_done arrays ->
            save_checkpoint ctx ~dir:ckpt_dir ~pass:pass_done inst arrays )
    else None
  in
  (* garbage from set-up or earlier calls is not charged to this one *)
  Gc.compact ();
  let cpu0 = cpu_seconds () in
  let result, wall =
    Spans.timed ctx.tr "engine.run" (fun () ->
        match
          Engine.run inst.App.inst_session inst ~mode:(Workloads.mode w)
            ~passes:w.Workloads.passes ~scale:1.0 ~comms:"auto"
            ?telemetry:(if telemetry_on then None else Some false)
            ?checkpoint ()
        with
        | r -> Ok r
        | exception (Engine.Distributed_error _ as e) ->
            Error (Engine.distributed_error_to_string e)
        | exception e -> Error (Printexc.to_string e))
  in
  let cpu = cpu_seconds () -. cpu0 in
  if index = 0 then ctx.first_call_rss <- peak_rss_mb ();
  let call =
    match result with
    | Error msg ->
        {
          wall;
          cpu;
          telemetry_on;
          report = None;
          failure = Some msg;
          loss = Float.nan;
        }
    | Ok r ->
        let loss = loss_of ctx inst in
        let failure = gate ctx reference inst ~loss ~ckpt_dir in
        if failure = None then ctx.last_model <- Some inst;
        { wall; cpu; telemetry_on; report = Some r; failure; loss }
  in
  rm_rf ckpt_dir;
  call

(* Closed loop: after the first call (whose check builds the lazy
   reference), start calls until [seconds] have passed, at least two in
   all.  The traced run alternates default telemetry with telemetry
   off, for obs.overhead_frac. *)
let training_loop ctx reference =
  let call i =
    training_call ctx reference ~index:i
      ~telemetry_on:((not ctx.o.trace) || i mod 2 = 0)
  in
  let first = call 0 in
  let t0 = Orion.Clock.now () in
  let rec go i acc =
    if i >= 2 && Orion.Clock.elapsed t0 >= ctx.o.seconds then List.rev acc
    else go (i + 1) (call i :: acc)
  in
  go 1 [ first ]

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced run only)                                  *)
(* ------------------------------------------------------------------ *)

let repeat n f = for _ = 1 to n do f () done

let probe_store ctx =
  repeat 3 (fun () ->
      ignore
        (Spans.timed ctx.tr "store.load" (fun () ->
             match ctx.w.Workloads.dataset with
             | `Ratings -> ignore (Orion_store.Loader.ratings ctx.data_dir)
             | `Corpus -> ignore (Orion_store.Loader.corpus ctx.data_dir))))

(* checkpoint round trips for workloads that do not checkpoint while
   training: save the final model, restore it into a fresh instance *)
let probe_checkpoint ctx final =
  let dir = Filename.concat ctx.tmp "ckpt-probe" in
  repeat 3 (fun () ->
      save_checkpoint ctx ~dir ~pass:ctx.w.Workloads.passes final
        final.App.inst_arrays;
      match restore_check ctx ~dir final with
      | Some m -> ctx.check_failures <- m :: ctx.check_failures
      | None -> ());
  rm_rf dir

let probe_schedule_and_kernel ctx =
  let inst, _ = Spans.timed ctx.tr "check.materialize" (fun () -> materialize ctx) in
  let session = inst.App.inst_session in
  let plan = Orion.analyze_loop session inst.App.inst_loop in
  repeat 3 (fun () ->
      ignore
        (Spans.timed ctx.tr "runtime.schedule" (fun () ->
             Orion.compile session ~plan ~iter:inst.App.inst_iter ())));
  repeat 3 (fun () ->
      ignore
        (Spans.timed ctx.tr "lang.kernel_compile" (fun () ->
             Engine.compile_kernel inst (inst.App.inst_make_env ()))));
  let env = inst.App.inst_env in
  match Engine.compile_kernel inst env with
  | None -> fail "the %s loop body does not compile to a kernel" ctx.w.Workloads.app
  | Some kernel ->
      let entries =
        Array.of_list
          (List.rev
             (Dist_array.fold (fun acc k v -> (k, v) :: acc) [] inst.App.inst_iter))
      in
      let pass name =
        ignore
          (Spans.timed ctx.tr name (fun () ->
               Array.iter (fun (key, value) -> Orion.Compile.run kernel ~key ~value) entries))
      in
      (* the worker's write journal installs an access hook on the env
         the kernel was compiled against; a no-op one isolates the cost
         of the hooked path itself *)
      repeat 5 (fun () ->
          pass "lang.kernel_pass";
          env.Orion.Interp.on_array_access <- Some (fun _ ~write:_ _ -> ());
          pass "lang.kernel_hooked_pass";
          env.Orion.Interp.on_array_access <- None);
      Array.length entries

(* encode the model's partitions as a partition ship, decode them back,
   and demand the round trip be exact; returns the model bytes *)
let probe_codec ctx (model : App.instance) =
  let parts = List.map (fun (_, a) -> Dist_array.to_partition a) model.App.inst_arrays in
  let bytes =
    List.fold_left (fun acc p -> acc + Dist_array.partition_size_bytes p) 0 parts
  in
  repeat 5 (fun () ->
      let wire, _ =
        Spans.timed ctx.tr "net.codec_encode" (fun () ->
            let payloads, _ = Policy.prepare_parts Policy.Auto parts in
            Wire.to_bytes (Wire.Partition_ship payloads))
      in
      let back, _ =
        Spans.timed ctx.tr "net.codec_decode" (fun () ->
            match Wire.of_bytes wire with
            | Wire.Partition_ship ps -> Policy.decode_parts ps
            | _ -> fail "partition ship decoded to another message")
      in
      let named = List.map (fun p -> (p.Dist_array.pt_array, p)) in
      match mismatch ~tol:None (named back) (named parts) with
      | Some m -> ctx.check_failures <- ("codec round trip: " ^ m) :: ctx.check_failures
      | None -> ());
  bytes

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* median seconds of the spans called [span], as metric [span ^ "_s"] *)
let med_spans ctx span =
  let d = Spans.durations ctx.tr span in
  metric ~samples:(List.length d) (span ^ "_s") "s" (Stats.median d)

(* seconds from the first pass window's start to the last one's end *)
let passes_span (sm : Telemetry.summary) =
  match sm.Telemetry.sm_pass_metrics with
  | [] -> 0.0
  | ms ->
      let lo = List.fold_left (fun a (_, m) -> Float.min a m.Metrics.window_start) infinity ms in
      let hi = List.fold_left (fun a (_, m) -> Float.max a m.Metrics.window_end) neg_infinity ms in
      hi -. lo

(* calls that ran with default telemetry and returned a report *)
let reported calls =
  List.filter_map
    (fun c -> match c.report with Some r when c.telemetry_on -> Some (c, r) | _ -> None)
    calls

let end_to_end ctx calls =
  let ok = reported calls in
  let n = List.length ok in
  let med f = Stats.median (List.map f ok) in
  let losses =
    List.filter_map (fun c -> if c.report <> None then Some c.loss else None) calls
  in
  let failed = List.length (List.filter (fun c -> c.failure <> None) calls) in
  ( [
      metric ~samples:n "entries_per_s" "1/s"
        (med (fun (c, r) -> float_of_int r.Engine.ep_entries /. c.wall));
      metric ~samples:(List.length ctx.setups) "setup_s" "s" (Stats.median ctx.setups);
      (* a mean: Unix.times counts whole clock ticks *)
      metric ~samples:n "cpu_s" "s" (Stats.mean (List.map (fun (c, _) -> c.cpu) ok));
      metric "peak_rss_mb" "MB" ctx.first_call_rss;
    ],
    (* printed for people but kept off the JSON line, whose metrics must
       be comparable across seeds and never 0: the domain pool ships no
       bytes, a clean run fails nothing, and the loss a model reaches
       depends on the dataset the seed draws (the gate already demands
       it equal the Sim reference's) *)
    [
      metric ~samples:(List.length losses) "final_loss" "loss" (Stats.median losses);
      metric ~samples:n "wire_bytes" "bytes" (med (fun (_, r) -> r.Engine.ep_bytes_shipped));
      metric ~samples:(List.length calls) "failed_frac" "frac"
        (float_of_int failed /. float_of_int (max 1 (List.length calls)));
    ] )

let block_metrics prefix samples =
  let n = List.length samples in
  let tail = Stats.tail_pct n in
  let pct p = if n = 0 then 0.0 else Stats.percentile p samples in
  [
    metric ~samples:n (prefix ^ ".block_s_p50") "s" (pct 50.0);
    metric ~samples:n (prefix ^ ".block_s_tail") "s" (pct tail);
    metric (prefix ^ ".block_tail_pct") "%" tail;
    metric (prefix ^ ".block_samples") "count" (float_of_int n);
  ]

(* arrays whose wire bytes are reported, across all workloads *)
let byte_arrays = [ "W"; "H"; "doc_topic"; "word_topic"; "token_topic"; "totals_buf" ]

let per_layer ctx calls reference ~kernel_entries ~codec_bytes =
  let ok = reported calls in
  let n = List.length ok in
  let with_tel =
    List.filter_map
      (fun (c, r) -> Option.map (fun sm -> (c, r, sm)) r.Engine.ep_telemetry)
      ok
  in
  let nt = List.length with_tel in
  let med f = Stats.median (List.map f ok) in
  let med_tel f = Stats.median (List.map f with_tel) in
  let overall (_, _, sm) = sm.Telemetry.sm_overall in
  let blocks =
    List.concat_map
      (fun (_, _, sm) -> List.map (fun b -> b.Telemetry.bc_seconds) sm.Telemetry.sm_block_costs)
      with_tel
  in
  let is_pool, is_dist =
    match ctx.w.Workloads.backend with
    | Workloads.Pool _ -> (true, false)
    | Workloads.Dist _ -> (false, true)
  in
  let only on ms = if on then ms else List.map (fun m -> { m with value = 0.0; samples = 0 }) ms in
  let wall_on = Stats.median (List.map (fun (c, _) -> c.wall) ok) in
  let wall_off =
    Stats.median
      (List.filter_map
         (fun c -> if c.report <> None && not c.telemetry_on then Some c.wall else None)
         calls)
  in
  let token_wait (_, _, sm) =
    Array.fold_left
      (fun acc s ->
        if s.Trace.category = Trace.Idle && s.Trace.label = "wait-tokens" then
          acc +. s.Trace.duration_sec
        else acc)
      0.0
      (Trace.spans sm.Telemetry.sm_trace)
  in
  let ns_per_entry kind =
    let d = Spans.durations ctx.tr ("lang." ^ kind ^ "_pass") in
    metric ~samples:(List.length d) ("lang." ^ kind ^ "_ns_per_entry") "ns"
      (Stats.median d *. 1e9 /. float_of_int (max 1 kernel_entries))
  in
  let mb_s name =
    let d = Spans.durations ctx.tr name in
    metric ~samples:(List.length d) (name ^ "_mb_s") "MB/s"
      (if d = [] then 0.0 else float_of_int codec_bytes /. 1e6 /. Stats.median d)
  in
  let bytes_of arr (_, r) =
    Option.value ~default:0.0 (List.assoc_opt arr r.Engine.ep_bytes_by_array)
  in
  let full = med (fun (_, r) -> r.Engine.ep_bytes_full) in
  let shipped = med (fun (_, r) -> r.Engine.ep_bytes_shipped) in
  List.concat
    [
      [
        med_spans ctx "apps.materialize";
        med_spans ctx "store.load";
        med_spans ctx "store.ckpt_save";
        metric "store.ckpt_bytes" "bytes" (float_of_int ctx.ckpt_bytes);
        med_spans ctx "store.restore";
        med_spans ctx "analysis.analyze";
        med_spans ctx "runtime.schedule";
        metric ~samples:n "runtime.blocks" "count" (med (fun (_, r) -> float_of_int r.Engine.ep_blocks));
        metric ~samples:n "runtime.steals" "count" (med (fun (_, r) -> float_of_int r.Engine.ep_steals));
      ];
      only is_pool
        ([
           metric ~samples:nt "runtime.compute_s" "s" (med_tel (fun t -> (overall t).Metrics.compute_sec));
           metric ~samples:nt "runtime.barrier_wait_frac" "frac"
             (med_tel (fun t -> (overall t).Metrics.barrier_wait_fraction));
           metric ~samples:nt "runtime.straggler_ratio" "ratio"
             (med_tel (fun t -> (overall t).Metrics.straggler_ratio));
         ]
        @ block_metrics "runtime" blocks
        @ [
            metric ~samples:nt "runtime.overhead_s" "s"
              (med_tel (fun ((c, _, _) as t) ->
                   c.wall -. Array.fold_left Float.max 0.0 (overall t).Metrics.busy_per_worker));
          ]);
      [
        med_spans ctx "lang.kernel_compile";
        ns_per_entry "kernel";
        ns_per_entry "kernel_hooked";
      ];
      only is_dist
        ([
           metric ~samples:nt "net.compute_s" "s" (med_tel (fun t -> (overall t).Metrics.compute_sec));
           metric ~samples:nt "net.compute_us_per_entry" "us"
             (med_tel (fun ((_, r, _) as t) ->
                  (overall t).Metrics.compute_sec *. 1e6 /. float_of_int (max 1 r.Engine.ep_entries)));
           metric ~samples:nt "net.transfer_s" "s" (med_tel (fun t -> (overall t).Metrics.transfer_sec));
           metric ~samples:nt "net.token_wait_s" "s" (med_tel token_wait);
           metric ~samples:nt "net.barrier_wait_s" "s" (med_tel (fun t -> (overall t).Metrics.barrier_wait_sec));
           metric ~samples:nt "net.marshal_s" "s" (med_tel (fun t -> (overall t).Metrics.marshal_sec));
           metric ~samples:nt "net.straggler_ratio" "ratio" (med_tel (fun t -> (overall t).Metrics.straggler_ratio));
         ]
        @ block_metrics "net" blocks
        @ [
            metric ~samples:nt "net.outside_passes_s" "s"
              (med_tel (fun (c, _, sm) -> c.wall -. passes_span sm));
            metric ~samples:n "net.wire_bytes" "bytes" shipped;
            metric ~samples:n "net.bytes_full" "bytes" full;
            metric ~samples:n "net.bytes_saved_frac" "frac"
              (if full > 0.0 then 1.0 -. (shipped /. full) else 0.0);
          ]
        @ List.map
            (fun arr -> metric ~samples:n ("net.bytes." ^ arr) "bytes" (med (bytes_of arr)))
            byte_arrays);
      [
        mb_s "net.codec_encode";
        mb_s "net.codec_decode";
        metric ~samples:n "obs.overhead_frac" "frac"
          (if wall_off > 0.0 then (wall_on /. wall_off) -. 1.0 else 0.0);
        metric ~samples:n "sim.predicted_over_measured" "ratio"
          (if wall_on > 0.0 then reference.ref_sim_time /. wall_on else 0.0);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metric_json ms =
  Report.Obj
    (List.map
       (fun m -> (m.name, Report.Obj [ ("value", Report.Float m.value); ("unit", Report.Str m.unit_) ]))
       ms)

let print_metric m =
  Printf.printf "  %-34s %18.6g %-6s (n=%d)\n" m.name m.value m.unit_ m.samples

let run o =
  let worker = check_env () in
  Orion_apps.Registry.ensure ();
  let w = o.workload in
  let app =
    match App.find w.Workloads.app with
    | Some a -> a
    | None -> fail "app %s is not registered" w.Workloads.app
  in
  let cwd = Sys.getcwd () in
  let tmp_root = Filename.concat cwd ".perfbench_tmp" in
  let tmp =
    Filename.concat tmp_root (Printf.sprintf "%s-%d" w.Workloads.name (Unix.getpid ()))
  in
  let out_dir = Filename.concat cwd ".perfbench_out" in
  mkdir_p tmp;
  mkdir_p out_dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf tmp;
      (* only when no other run is using it *)
      try Sys.rmdir tmp_root with Sys_error _ -> ())
  @@ fun () ->
  (* inputs: generated from the seed outside any timed region, handed
     to the program (and its spawned workers) only through the
     environment *)
  let data_dir = Filename.concat tmp "data" in
  ignore (Orion_store.Gen.generate ~dir:data_dir ~seed:o.seed ~shards:4 w.Workloads.spec);
  Unix.putenv (Workloads.data_env w) data_dir;
  let ctx =
    {
      o;
      w;
      app;
      tr = Spans.create ~enabled:o.trace;
      tmp;
      data_dir;
      setups = [];
      first_call_rss = 0.0;
      ckpt_bytes = 0;
      last_model = None;
      check_failures = [];
    }
  in
  (* built when the first call is checked, after its memory peak *)
  let reference = lazy (reference ctx) in
  let calls = training_loop ctx reference in
  let reference = Lazy.force reference in
  (* set-up is cheap next to a training call: take at least 20 samples *)
  while List.length ctx.setups < 20 do
    ignore (setup ctx)
  done;
  let e2e, extra = end_to_end ctx calls in
  let metrics =
    if not o.trace then e2e
    else begin
      probe_store ctx;
      let kernel_entries = probe_schedule_and_kernel ctx in
      let model =
        match ctx.last_model with Some m -> m | None -> materialize ctx
      in
      if not w.Workloads.checkpoint_every_pass then probe_checkpoint ctx model;
      let codec_bytes = probe_codec ctx model in
      per_layer ctx calls reference ~kernel_entries ~codec_bytes
    end
  in
  (* the people-facing extras ride along with the end-to-end metrics *)
  let shown = if o.trace then metrics else metrics @ extra in
  let attempted = List.length calls in
  let failures =
    List.filter_map (fun c -> c.failure) calls @ List.rev ctx.check_failures
  in
  let failed = List.length (List.filter (fun c -> c.failure <> None) calls) in
  let correct = failures = [] in
  let host = host_json ~rev:o.rev ~worker in
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.Workloads.name o.seed (if o.trace then 1 else 0) in
  let record =
    Report.Obj
      [
        ("host", host);
        ("workload", Report.Str w.Workloads.name);
        ("seed", Report.Int o.seed);
        ("dataset", Workloads.spec_json w.Workloads.spec);
        ("seconds", Report.Float o.seconds);
        ("reference_loss", Report.Float reference.ref_loss);
        ("correct", Report.Bool correct);
        ("failures", Report.strs failures);
        ( "calls",
          Report.List
            (List.map
               (fun c ->
                 Report.Obj
                   [
                     ("wall_s", Report.Float c.wall);
                     ("cpu_s", Report.Float c.cpu);
                     ("telemetry", Report.Bool c.telemetry_on);
                     ( "entries",
                       match c.report with
                       | Some r -> Report.Int r.Engine.ep_entries
                       | None -> Report.Null );
                     ( "passes_s",
                       match c.report with
                       | Some { Engine.ep_telemetry = Some sm; _ } -> Report.Float (passes_span sm)
                       | _ -> Report.Null );
                     ("ok", Report.Bool (c.failure = None));
                   ])
               calls) );
        ( "metrics",
          Report.List
            (List.map
               (fun m ->
                 Report.Obj
                   [
                     ("name", Report.Str m.name);
                     ("value", Report.Float m.value);
                     ("unit", Report.Str m.unit_);
                     ("samples", Report.Int m.samples);
                   ])
               shown) );
      ]
  in
  write_file (Filename.concat out_dir (stem ^ ".json")) (Report.json_to_string record);
  let span_file = Filename.concat out_dir (stem ^ "-spans.json") in
  if o.trace then write_file span_file (Report.json_to_string (Spans.to_json ctx.tr));
  Printf.printf "host: %s\n" (Report.json_to_string host);
  Printf.printf "workload %s, seed %d, dataset %s, %d pass(es) per call\n"
    w.Workloads.name o.seed
    (Report.json_to_string (Workloads.spec_json w.Workloads.spec))
    w.Workloads.passes;
  Printf.printf "%d training call(s), %d failed; results in %s\n" attempted failed
    (Filename.concat ".perfbench_out" (stem ^ ".json"));
  if o.trace then Printf.printf "spans in %s\n" (Filename.concat ".perfbench_out" (stem ^ "-spans.json"));
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  List.iter print_metric shown;
  print_endline
    (Report.json_to_string
       (Report.Obj
          [
            ("correct", Report.Bool correct);
            ("attempted", Report.Int attempted);
            ("failed", Report.Int failed);
            ("metrics", metric_json metrics);
          ]))

let () =
  match parse_args Sys.argv with
  | exception Setup_failure msg ->
      prerr_endline ("harness: " ^ msg);
      exit 2
  | o -> (
      try run o
      with Setup_failure msg ->
        prerr_endline ("harness: " ^ msg);
        exit 2)
