(* Tests for the multi-process distributed runtime (lib/net): partition
   serialization, wire framing, happens-before acyclicity, end-to-end
   equivalence of [`Distributed] runs against the simulated executor
   for every registered app, transport/spawn variants, determinism, and
   the structured failure path under fault injection. *)

open Orion_dsm
open Orion_runtime
module Verify = Orion_verify.Verify

let tc = Alcotest.test_case
let qc = QCheck_alcotest.to_alcotest
let () = Orion_apps.Registry.ensure ()

(* keep the suite hermetic: in-process fork workers, bounded waits *)
let () = Unix.putenv Orion_net.Dist_master.spawn_env "fork"
let () = Unix.putenv Orion_net.Dist_worker.timeout_env "60"

(* ------------------------------------------------------------------ *)
(* Partition serialization round-trip (shared by lib/net and           *)
(* checkpointing)                                                      *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let qcheck_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"partition marshal round-trip"
    QCheck.(
      triple bool
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (small_list (pair small_nat (float_range (-1e6) 1e6))))
    (fun (sparse, dims_l, seeds) ->
      let dims = Array.of_list dims_l in
      let a =
        if sparse then Dist_array.create_sparse ~name:"rt" ~dims ~default:0.0
        else Dist_array.fill_dense ~name:"rt" ~dims 0.0
      in
      List.iter
        (fun (kseed, v) ->
          let key = Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims in
          Dist_array.set a key v)
        seeds;
      let part = Dist_array.to_partition a in
      let part' =
        Dist_array.partition_of_bytes (Dist_array.partition_to_bytes part)
      in
      (* bitwise equality of the wire image *)
      part'.Dist_array.pt_array = part.Dist_array.pt_array
      && part'.Dist_array.pt_dims = part.Dist_array.pt_dims
      && part'.Dist_array.pt_sparse = part.Dist_array.pt_sparse
      && bits part'.Dist_array.pt_default = bits part.Dist_array.pt_default
      && Array.length part'.Dist_array.pt_entries
         = Array.length part.Dist_array.pt_entries
      && Array.for_all2
           (fun (k, v) (k', v') -> k = k' && bits v = bits v')
           part.Dist_array.pt_entries part'.Dist_array.pt_entries
      &&
      (* and of the rebuilt array *)
      let b = Dist_array.of_partition part' in
      Dist_array.is_sparse b = sparse
      && Dist_array.fold
           (fun ok key v -> ok && bits (Dist_array.get b key) = bits v)
           true a)

let qcheck_partition_select =
  QCheck.Test.make ~count:100 ~name:"partition select filters entries"
    QCheck.(small_list (pair (int_range 0 11) (float_range (-10.0) 10.0)))
    (fun seeds ->
      let a = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      List.iter (fun (k, v) -> Dist_array.set a [| k |] v) seeds;
      let part =
        Dist_array.to_partition ~select:(fun key _ -> key.(0) < 6) a
      in
      Array.for_all (fun (lin, _) -> lin < 6) part.Dist_array.pt_entries
      &&
      (* applying onto zeros reproduces exactly the selected half *)
      let b = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      Dist_array.apply_partition b part;
      Dist_array.fold
        (fun ok key v ->
          ok
          && bits (Dist_array.get b key)
             = bits (if key.(0) < 6 then v else 0.0))
        true a)

(* ------------------------------------------------------------------ *)
(* Happens-before edge sets are acyclic for every model and shape      *)
(* ------------------------------------------------------------------ *)

let gen_model =
  QCheck.Gen.(
    oneof
      [
        return Domain_exec.M_1d;
        return Domain_exec.M_2d_ordered;
        map (fun d -> Domain_exec.M_2d_unordered { depth = d }) (int_range 1 3);
        return Domain_exec.M_time_major;
      ])

let arb_model =
  QCheck.make gen_model ~print:(fun m -> Domain_exec.model_to_string m)

let qcheck_block_edges_acyclic =
  QCheck.Test.make ~count:300 ~name:"block_edges acyclic (toposort completes)"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let n = sp * tp in
      let edges = Domain_exec.block_edges model ~sp ~tp in
      List.for_all (fun (s, d) -> s >= 0 && s < n && d >= 0 && d < n) edges
      &&
      (* Kahn's algorithm must consume every block *)
      let succs = Array.make n [] and pending = Array.make n 0 in
      List.iter
        (fun (s, d) ->
          succs.(s) <- d :: succs.(s);
          pending.(d) <- pending.(d) + 1)
        edges;
      let ready = ref [] in
      for b = n - 1 downto 0 do
        if pending.(b) = 0 then ready := b :: !ready
      done;
      let visited = ref 0 in
      let rec drain () =
        match !ready with
        | [] -> ()
        | b :: rest ->
            ready := rest;
            incr visited;
            List.iter
              (fun d ->
                pending.(d) <- pending.(d) - 1;
                if pending.(d) = 0 then ready := d :: !ready)
              succs.(b);
            drain ()
      in
      drain ();
      !visited = n)

(* natural_order is one valid linearization of the edge set *)
let qcheck_natural_order_linearizes =
  QCheck.Test.make ~count:300 ~name:"natural_order respects block_edges"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let pos = Hashtbl.create 16 in
      Array.iteri
        (fun i (s, t) -> Hashtbl.replace pos ((s * tp) + t) i)
        (Domain_exec.natural_order model ~sp ~tp);
      List.for_all
        (fun (src, dst) -> Hashtbl.find pos src < Hashtbl.find pos dst)
        (Domain_exec.block_edges model ~sp ~tp))

(* ------------------------------------------------------------------ *)
(* Frame + wire round-trip over a real socketpair                      *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Orion_net.Transport.wrap a and cb = Orion_net.Transport.wrap b in
  let msgs =
    [
      Orion_net.Wire.Hello
        { h_rank = 3; h_pid = 42; h_version = Orion_net.Wire.version };
      Orion_net.Wire.Peers [| "unix:/tmp/w0"; "tcp:127.0.0.1:9999" |];
      Orion_net.Wire.Peer_hello
        { ph_rank = 1; ph_version = Orion_net.Wire.version };
      Orion_net.Wire.Rotation_token
        {
          rt_pass = 1;
          rt_src = 5;
          rt_dst = 6;
          rt_payload =
            Orion_net.Wire.Triples
              [
                {
                  tr_array = "H";
                  tr_keys = [| 2; 3 |];
                  tr_values = [| -0.125; 4.0 |];
                  tr_versions = [| 5; 7 |];
                };
              ];
        };
      Orion_net.Wire.Pass_sync
        {
          ps_pass = 0;
          ps_rank = 1;
          ps_payload = Orion_net.Wire.Packed_triples (Bytes.of_string "xyz");
        };
      Orion_net.Wire.Shutdown;
    ]
  in
  List.iter (fun m -> Orion_net.Transport.send ca m) msgs;
  List.iter
    (fun sent ->
      match Orion_net.Transport.recv cb with
      | Some got ->
          Alcotest.(check string)
            "same message kind" (Orion_net.Wire.tag sent)
            (Orion_net.Wire.tag got);
          Alcotest.(check bool) "same payload" true (got = sent)
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  Unix.close a;
  (match Orion_net.Transport.recv cb with
  | None -> ()
  | Some _ -> Alcotest.fail "expected EOF after close");
  Unix.close b

let test_addr_roundtrip () =
  List.iter
    (fun addr ->
      Alcotest.(check string)
        "addr round-trips"
        (Orion_net.Transport.addr_to_string addr)
        (Orion_net.Transport.addr_to_string
           (Orion_net.Transport.addr_of_string
              (Orion_net.Transport.addr_to_string addr))))
    [ `Unix "/tmp/x.sock"; `Tcp ("127.0.0.1", 8080) ]

(* ------------------------------------------------------------------ *)
(* Communication policies: codec round-trips and filter semantics      *)
(* ------------------------------------------------------------------ *)

module Policy = Orion_net.Policy

(* The stamp properties run a random multi-rank write history through
   [Policy.stamps] without sockets.  One pass of [blocks] natural-order
   positions, each owned by a random rank and writing a few elements of
   one dense and one sparse array (the dense ones through the unboxed
   fast path, the sparse ones through the boxed path).  After each
   block its owner prepares a token for a random peer; in-flight
   payloads are delivered in a shuffled order at random times, so
   receivers relay what they learned; at the end every rank flushes a
   pass sync to every peer and everything still in flight is delivered
   in a shuffled order. *)

type history = {
  h_ranks : int;
  h_owners : int array;  (** natural-order position -> rank *)
  h_blocks : (bool * int * float) list array;
      (** per position: (dense array?, key seed, value) writes *)
  h_seed : int;  (** delivery order and token targets *)
}

let gen_history =
  QCheck.Gen.(
    int_range 2 4 >>= fun ranks ->
    int_range 1 8 >>= fun blocks ->
    array_size (return blocks) (int_range 0 (ranks - 1)) >>= fun owners ->
    array_size (return blocks)
      (list_size (int_range 0 6)
         (triple bool small_nat (float_range (-1e3) 1e3)))
    >>= fun writes ->
    int >|= fun seed ->
    { h_ranks = ranks; h_owners = owners; h_blocks = writes; h_seed = seed })

let arb_history =
  QCheck.make gen_history ~print:(fun h ->
      Printf.sprintf "ranks %d, owners [%s], %d writes, seed %d" h.h_ranks
        (String.concat ";" (Array.to_list (Array.map string_of_int h.h_owners)))
        (Array.fold_left (fun a l -> a + List.length l) 0 h.h_blocks)
        h.h_seed)

let stamp_arrays () =
  [
    Dist_array.fill_dense ~name:"W" ~dims:[| 4; 5 |] 0.0;
    Dist_array.create_sparse ~name:"h" ~dims:[| 16 |] ~default:0.0;
  ]

let write_key dense kseed =
  if dense then [| kseed mod 20 / 5; kseed mod 5 |] else [| kseed mod 16 |]

let stamp_specs =
  [ Policy.Auto; Policy.Full; Policy.Delta; Policy.Topk 2; Policy.Budget 64.0 ]

(* What one run of a history observed. *)
type stamp_run = {
  sr_converged : bool;  (** every rank ends in the serial LWW state *)
  sr_exact : bool;
      (** every shipped triple is the last write of its version's block
          to its element, bitwise *)
  sr_foreign : bool;  (** no peer was offered an element it last wrote *)
  sr_bounded : bool;  (** [topk:K] tokens carry at most K triples *)
}

let run_history spec h =
  let rng = Random.State.make [| h.h_seed |] in
  let nblocks = Array.length h.h_owners in
  let ranks =
    Array.init h.h_ranks (fun r ->
        let arrays = stamp_arrays () in
        let st =
          Policy.stamps spec ~rank:r ~peers:h.h_ranks ~owners:h.h_owners arrays
        in
        Policy.note_pass st;
        (arrays, st, Policy.externs st))
  in
  (* serial reference, and the last value each block wrote per element *)
  let serial = stamp_arrays () in
  let last_write = Hashtbl.create 32 in
  Array.iteri
    (fun pos ws ->
      List.iter
        (fun (dense, kseed, v) ->
          let a = List.nth serial (if dense then 0 else 1) in
          let key = write_key dense kseed in
          Dist_array.set a key v;
          Hashtbl.replace last_write
            (Dist_array.name a, Dist_array.linearize a key, pos)
            (bits v))
        ws)
    h.h_blocks;
  let exact = ref true and foreign = ref true and bounded = ref true in
  let inflight = ref [] in
  let send ~src ~dst ~sync =
    let _, st, _ = ranks.(src) in
    let payload, _ = Policy.prepare st ~peer:dst ~sync in
    let trs = Policy.decode payload in
    List.iter
      (fun (tr : Orion_net.Wire.triples) ->
        Array.iteri
          (fun i lin ->
            let ver = tr.tr_versions.(i) in
            if h.h_owners.(ver mod nblocks) = dst then foreign := false;
            if
              Hashtbl.find_opt last_write (tr.tr_array, lin, ver mod nblocks)
              <> Some (bits tr.tr_values.(i))
            then exact := false)
          tr.tr_keys)
      trs;
    (match spec with
    | Policy.Topk k when not sync ->
        let n =
          List.fold_left
            (fun a (tr : Orion_net.Wire.triples) -> a + Array.length tr.tr_keys)
            0 trs
        in
        if n > k then bounded := false
    | _ -> ());
    inflight := (dst, payload) :: !inflight
  in
  let deliver ~all =
    let shuffled =
      List.map (fun m -> (Random.State.bits rng, m)) !inflight
      |> List.sort compare |> List.map snd
    in
    let now, later =
      List.partition (fun _ -> all || Random.State.bool rng) shuffled
    in
    inflight := later;
    List.iter
      (fun (dst, payload) ->
        let _, st, _ = ranks.(dst) in
        Policy.apply st payload)
      now
  in
  Array.iteri
    (fun pos ws ->
      let r = h.h_owners.(pos) in
      let _, st, externs = ranks.(r) in
      Policy.begin_block st ~pass:0 ~pos;
      List.iter
        (fun (dense, kseed, v) ->
          let key = write_key dense kseed in
          if dense then
            match (List.assoc "W" externs).Orion.Value.ex_fast with
            | Some fa -> fa.Orion.Value.fa_set key v
            | None -> Alcotest.fail "stamping extern lost its fast path"
          else
            (List.assoc "h" externs).Orion.Value.ex_set
              [| Orion.Value.Cpoint key.(0) |]
              (Orion.Value.Vfloat v))
        ws;
      let dst = (r + 1 + Random.State.int rng (h.h_ranks - 1)) mod h.h_ranks in
      send ~src:r ~dst ~sync:false;
      deliver ~all:false)
    h.h_blocks;
  for src = 0 to h.h_ranks - 1 do
    for dst = 0 to h.h_ranks - 1 do
      if src <> dst then send ~src ~dst ~sync:true
    done
  done;
  deliver ~all:true;
  let snapshot arrays =
    List.map (fun a -> Dist_array.to_partition a) arrays
    |> List.map (fun p ->
           Array.map (fun (k, v) -> (k, bits v)) p.Dist_array.pt_entries)
  in
  let want = snapshot serial in
  {
    sr_converged =
      Array.for_all (fun (arrays, _, _) -> snapshot arrays = want) ranks;
    sr_exact = !exact;
    sr_foreign = !foreign;
    sr_bounded = !bounded;
  }

(* relayed, shuffled tokens plus a pass sync reach the serial
   last-writer-wins state under every policy, and every shipped triple
   is exactly the last write of its version's block *)
let qcheck_policy_sync_roundtrip =
  QCheck.Test.make ~count:200 ~name:"policy sync flush round-trips LWW state"
    arb_history (fun h ->
      List.for_all
        (fun spec ->
          let r = run_history spec h in
          r.sr_converged && r.sr_exact)
        stamp_specs)

(* mid-pass, a lossy policy sends a bounded subset; the suppressed
   residuals complete the state at the pass sync *)
let qcheck_policy_residual_flush =
  QCheck.Test.make ~count:200 ~name:"suppressed residuals flush at pass sync"
    arb_history (fun h ->
      List.for_all
        (fun spec ->
          let r = run_history spec h in
          r.sr_bounded && r.sr_converged)
        [ Policy.Topk 2; Policy.Budget 64.0 ])

let qcheck_policy_no_own_writes =
  QCheck.Test.make ~count:200
    ~name:"a peer is never sent an element it last wrote" arb_history
    (fun h ->
      List.for_all (fun spec -> (run_history spec h).sr_foreign) stamp_specs)

let qcheck_packed_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"packed partition codec round-trip"
    QCheck.(
      triple bool
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (small_list (pair small_nat (float_range (-1e6) 1e6))))
    (fun (sparse, dims_l, seeds) ->
      let dims = Array.of_list dims_l in
      let a =
        if sparse then Dist_array.create_sparse ~name:"pk" ~dims ~default:0.0
        else Dist_array.fill_dense ~name:"pk" ~dims 0.0
      in
      List.iter
        (fun (kseed, v) ->
          let key = Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims in
          Dist_array.set a key v)
        seeds;
      let part = Dist_array.to_partition a in
      List.for_all
        (fun mode ->
          let part' = Policy.decode_part (Policy.encode_part ~mode part) in
          part'.Dist_array.pt_array = part.Dist_array.pt_array
          && part'.Dist_array.pt_dims = part.Dist_array.pt_dims
          && part'.Dist_array.pt_sparse = part.Dist_array.pt_sparse
          && bits part'.Dist_array.pt_default = bits part.Dist_array.pt_default
          && Array.length part'.Dist_array.pt_entries
             = Array.length part.Dist_array.pt_entries
          && Array.for_all2
               (fun (k, v) (k', v') -> k = k' && bits v = bits v')
               part.Dist_array.pt_entries part'.Dist_array.pt_entries)
        [ `Sparse; `Dense ])

let test_policy_spec_strings () =
  List.iter
    (fun (s, expect) ->
      match Policy.spec_of_string s with
      | Ok spec ->
          Alcotest.(check string)
            (Printf.sprintf "%S parses" s)
            expect (Policy.spec_to_string spec)
      | Error e -> Alcotest.failf "%S should parse, got: %s" s e)
    [
      ("auto", "auto");
      ("", "auto");
      ("full", "full");
      ("delta", "delta");
      ("topk:16", "topk:16");
      ("budget:65536", "budget:65536");
    ];
  List.iter
    (fun s ->
      match Policy.spec_of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "bogus"; "topk:"; "topk:0"; "topk:x"; "budget:-1"; "budget:" ]

(* ------------------------------------------------------------------ *)
(* End-to-end: distributed runs match the simulated executor           *)
(* ------------------------------------------------------------------ *)

let find_app name =
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.failf "app %s missing from registry" name

(* the reference instance must have the same cluster shape as the
   distributed one: schedule shape determines entry execution order,
   which order-sensitive apps (sgd mf, lda) are bitwise sensitive to *)
let run_sim (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  ignore (Orion.Engine.run inst.Orion.App.inst_session inst ~mode:`Sim ~passes ());
  inst.Orion.App.inst_outputs

let run_dist ?(transport = `Unix) ?comms (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  let report =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs; transport })
      ~passes ?comms ()
  in
  (inst.Orion.App.inst_outputs, report)

let run_dist_loss ?comms (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  let report =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs; transport = `Unix })
      ~passes ?comms ()
  in
  let loss =
    match app.Orion.App.app_loss with
    | Some f -> f inst
    | None -> Alcotest.failf "%s has no loss" app.Orion.App.app_name
  in
  (loss, report)

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

let distributed_matches_sim name procs () =
  let app = find_app name in
  let sim = run_sim app ~procs ~passes:2 in
  let dist, report = run_dist app ~procs ~passes:2 in
  check_outputs
    ~what:(Printf.sprintf "%s distributed(%d) vs sim" name procs)
    ~tolerance:app.Orion.App.app_tolerance sim dist;
  Alcotest.(check bool)
    "workers executed every entry twice" true
    (report.Orion.Engine.ep_entries > 0
    && report.Orion.Engine.ep_entries mod 2 = 0);
  Alcotest.(check bool)
    "some DistArray state travelled the wire" true
    (report.Orion.Engine.ep_bytes_shipped > 0.0
    && report.Orion.Engine.ep_bytes_by_array <> [])

(* rank-order accumulator merge makes even buffered apps bitwise
   deterministic across distributed runs *)
let distributed_deterministic name () =
  let app = find_app name in
  let r1, _ = run_dist app ~procs:2 ~passes:2 in
  let r2, _ = run_dist app ~procs:2 ~passes:2 in
  check_outputs ~what:(name ^ " run1 vs run2") ~tolerance:None r1 r2

(* [delta] only drops writes that a newer write in the same payload
   supersedes; under last-writer-wins receivers that is invisible, so
   the run must be bitwise-equal to [full] *)
let delta_matches_full name () =
  let app = find_app name in
  let full, rf = run_dist ~comms:"full" app ~procs:2 ~passes:2 in
  let delta, rd = run_dist ~comms:"delta" app ~procs:2 ~passes:2 in
  check_outputs
    ~what:(name ^ " delta vs full")
    ~tolerance:None full delta;
  Alcotest.(check string) "report names the policy" "delta"
    rd.Orion.Engine.ep_comms;
  Alcotest.(check string) "full report names the policy" "full"
    rf.Orion.Engine.ep_comms;
  Alcotest.(check bool) "delta reports per-array decisions" true
    (rd.Orion.Engine.ep_policy_by_array <> []);
  Alcotest.(check bool)
    (Printf.sprintf "delta ships fewer bytes (%.0f vs full %.0f)"
       rd.Orion.Engine.ep_bytes_shipped rf.Orion.Engine.ep_bytes_shipped)
    true
    (rd.Orion.Engine.ep_bytes_shipped < rf.Orion.Engine.ep_bytes_shipped)

(* the lossy policies trade mid-pass staleness for bandwidth: strictly
   fewer bytes on the wire, final loss within a small relative drift *)
let lossy_policy_drift name spec () =
  let app = find_app name in
  let procs = 2 and passes = 2 in
  let loss_full, rf = run_dist_loss ~comms:"full" app ~procs ~passes in
  let loss, r = run_dist_loss ~comms:spec app ~procs ~passes in
  Alcotest.(check bool)
    (Printf.sprintf "%s %s ships fewer bytes (%.0f vs full %.0f)" name spec
       r.Orion.Engine.ep_bytes_shipped rf.Orion.Engine.ep_bytes_shipped)
    true
    (r.Orion.Engine.ep_bytes_shipped < rf.Orion.Engine.ep_bytes_shipped);
  let drift =
    Float.abs (loss -. loss_full) /. Float.max 1e-12 (Float.abs loss_full)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s %s final-loss drift %.2e <= 1e-3 (loss %.6f vs %.6f)"
       name spec drift loss loss_full)
    true (drift <= 1e-3)

let tcp_smoke () =
  let app = find_app "mf" in
  let sim = run_sim app ~procs:2 ~passes:1 in
  let dist, _ = run_dist ~transport:`Tcp app ~procs:2 ~passes:1 in
  check_outputs ~what:"mf over tcp vs sim" ~tolerance:None sim dist

(* spawn through the real orion_worker executable (exec path) *)
let exec_spawn_smoke () =
  let exe =
    (* the test binary lives in _build/default/test; the worker is a
       declared dep one directory over *)
    let candidates =
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ()) "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ())
          "_build/default/bin/orion_worker.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
        Alcotest.failf "orion_worker.exe not found near %s"
          Sys.executable_name
  in
  Unix.putenv Orion_net.Dist_master.spawn_env ("exec:" ^ exe);
  Fun.protect
    ~finally:(fun () -> Unix.putenv Orion_net.Dist_master.spawn_env "fork")
    (fun () ->
      let app = find_app "mf" in
      let sim = run_sim app ~procs:2 ~passes:1 in
      let dist, _ = run_dist app ~procs:2 ~passes:1 in
      check_outputs ~what:"mf via exec'd workers vs sim" ~tolerance:None sim
        dist)

(* ------------------------------------------------------------------ *)
(* Telemetry: worker spans shipped over the wire merge into one        *)
(* clock-aligned multi-process timeline                                *)
(* ------------------------------------------------------------------ *)

let distributed_telemetry_merged_timeline () =
  let app = find_app "mf" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 ()
  in
  let passes = 2 in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes ~telemetry:true ()
  in
  match r.Orion.Engine.ep_telemetry with
  | None -> Alcotest.fail "distributed run produced no telemetry"
  | Some sm ->
      Alcotest.(check string) "mode" "distributed" sm.Orion.Telemetry.sm_mode;
      Alcotest.(check int) "one shard per worker" 2
        sm.Orion.Telemetry.sm_workers;
      let spans = Orion.Trace.spans sm.Orion.Telemetry.sm_trace in
      Alcotest.(check bool) "merged timeline is non-empty" true
        (Array.length spans > 0);
      (* each worker's spans are recorded sequentially, so after the
         master shifts them by the epoch offset they must still read as
         a monotone per-worker timeline on the master clock *)
      let last = Hashtbl.create 4 in
      let workers_seen = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          Hashtbl.replace workers_seen s.Orion.Trace.worker ();
          Alcotest.(check bool) "span start is on the master timeline" true
            (s.Orion.Trace.start_sec >= 0.0);
          (match Hashtbl.find_opt last s.Orion.Trace.worker with
          | Some prev ->
              Alcotest.(check bool)
                (Printf.sprintf "worker %d timeline is monotone"
                   s.Orion.Trace.worker)
                true
                (s.Orion.Trace.start_sec >= prev)
          | None -> ());
          Hashtbl.replace last s.Orion.Trace.worker
            s.Orion.Trace.start_sec)
        spans;
      Alcotest.(check int) "both workers contributed spans" 2
        (Hashtbl.length workers_seen);
      Alcotest.(check int) "one metrics row per pass" passes
        (List.length sm.Orion.Telemetry.sm_pass_metrics);
      let overall = sm.Orion.Telemetry.sm_overall in
      Alcotest.(check bool) "nonzero compute time" true
        (overall.Orion.Metrics.compute_sec > 0.0);
      Alcotest.(check bool) "finite straggler ratio" true
        (Float.is_finite overall.Orion.Metrics.straggler_ratio);
      Alcotest.(check bool) "rotation traffic carries bytes" true
        (overall.Orion.Metrics.total_bytes > 0.0);
      Alcotest.(check bool) "per-block cost table is non-empty" true
        (sm.Orion.Telemetry.sm_block_costs <> [])

(* the worker's stamp encode and decode+apply are Marshal spans, so a
   traced run reports where serialization time goes *)
let distributed_marshal_time () =
  let app = find_app "mf" in
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 () in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes:2 ~telemetry:true ()
  in
  match r.Orion.Engine.ep_telemetry with
  | None -> Alcotest.fail "distributed run produced no telemetry"
  | Some sm ->
      let m = sm.Orion.Telemetry.sm_overall.Orion.Metrics.marshal_sec in
      Alcotest.(check bool)
        (Printf.sprintf "marshal_sec %.3e > 0" m)
        true (m > 0.0)

(* Every rank holds the same state after the last barrier and ships
   only the elements whose last writer it owns, so the final gather is
   O(model): the same bytes after 1 pass as after 10, counted in the
   run's per-array byte totals. *)
let final_gather_is_model_sized () =
  let app = find_app "mf" in
  let gather passes =
    let inst =
      app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 ()
    in
    let r =
      Orion.Engine.run inst.Orion.App.inst_session inst
        ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
        ~passes ()
    in
    let by_array = Hashtbl.create 4 in
    Orion.Trace.iter
      (fun sp ->
        let l = sp.Orion.Trace.label in
        if String.length l > 7 && String.sub l 0 7 = "gather:" then
          let name = String.sub l 7 (String.length l - 7) in
          Hashtbl.replace by_array name
            (sp.Orion.Trace.bytes
            +. Option.value (Hashtbl.find_opt by_array name) ~default:0.0))
      inst.Orion.App.inst_session.Orion.cluster.Orion.Cluster.trace;
    Hashtbl.iter
      (fun name b ->
        let total =
          Option.value
            (List.assoc_opt name r.Orion.Engine.ep_bytes_by_array)
            ~default:0.0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s gather bytes %.0f within its total %.0f" name b
             total)
          true (b <= total))
      by_array;
    Hashtbl.fold (fun _ b acc -> acc +. b) by_array 0.0
  in
  let one = gather 1 and ten = gather 10 in
  Alcotest.(check bool) (Printf.sprintf "gather ships bytes (%.0f)" one) true
    (one > 0.0);
  Alcotest.(check (float 0.0)) "gather bytes do not grow with passes" one ten

(* Every subcommand that accepts --procs builds its instances through
   one run spec, so the workers rebuild the master's data at any scale.
   Each row: a name, the subcommand's arguments (OUT and CSV are
   temporary files, which must be non-empty afterwards), and a line
   its output must contain. *)
let cli_at_scale =
  [
    ("run", [ "run"; "--app"; "mf" ], "mode distributed(2,unix)");
    ( "trace",
      [
        "trace"; "--mode"; "distributed"; "--app"; "mf"; "--out"; "OUT";
        "--csv"; "CSV";
      ],
      "distributed (2 procs)" );
    ("tune", [ "tune"; "--mode"; "distributed" ], "distributed 2 workers");
    ( "bench speedup-distributed",
      [ "bench"; "--mode"; "speedup-distributed"; "--app"; "mf"; "-o"; "OUT" ],
      "results match sim" );
    ( "bench convergence",
      [ "bench"; "--mode"; "convergence"; "--app"; "mf"; "-o"; "OUT" ],
      "mf   distributed(2,unix) pass  2" );
  ]

let cli_distributed_at_scale args expected () =
  let exe =
    let candidates =
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/orion_cli.exe";
        Filename.concat (Sys.getcwd ()) "../bin/orion_cli.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
        Alcotest.failf "orion_cli.exe not found near %s" Sys.executable_name
  in
  let files =
    List.filter_map
      (fun a ->
        if a = "OUT" || a = "CSV" then
          Some (a, Filename.temp_file "orion-cli" a)
        else None)
      args
  in
  let stdout = Filename.temp_file "orion-cli" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, f) -> Sys.remove f) files;
      Sys.remove stdout)
    (fun () ->
      let args =
        List.map (fun a -> Option.value (List.assoc_opt a files) ~default:a) args
        @ [ "--procs"; "2"; "--scale"; "3"; "--passes"; "2" ]
      in
      (* exec'd workers: a process that ran the domain pool cannot fork *)
      let code =
        Sys.command
          (Printf.sprintf "%s= %s" Orion_net.Dist_master.spawn_env
             (Filename.quote_command exe ~stdout args))
      in
      Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
      List.iter
        (fun (a, f) ->
          Alcotest.(check bool) (a ^ " file written") true
            ((Unix.stat f).Unix.st_size > 0))
        files;
      let ic = open_in stdout in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "output mentions %S" expected)
        true (contains text expected))

(* ------------------------------------------------------------------ *)
(* Workers check the dataset, not only the schedule                     *)
(* ------------------------------------------------------------------ *)

(* the schedule fingerprint hashes keys only: a master whose ratings
   differ from what the workers rebuild must fail by the dataset
   digest, naming the worker *)
let dataset_digest_mismatch () =
  let app = find_app "mf" in
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 () in
  let iter = inst.Orion.App.inst_iter in
  let keys = ref [] in
  Orion.Dist_array.iter (fun k _ -> keys := k :: !keys) iter;
  List.iter (fun k -> Orion.Dist_array.set iter k (Orion.Value.Vfloat 5.0)) !keys;
  match
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes:2 ()
  with
  | _ -> Alcotest.fail "workers trained on data the master does not hold"
  | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
      Alcotest.(check bool) "a worker is named" true (de_rank <> None);
      let rank = Option.get de_rank in
      let prefix = Printf.sprintf "rank %d: dataset digest" rank in
      Alcotest.(check bool)
        (Printf.sprintf "reason %S starts with %S" de_reason prefix)
        true
        (String.length de_reason >= String.length prefix
        && String.sub de_reason 0 (String.length prefix) = prefix)

(* The master's choice of root cause.  A worker that fails a check
   sends [Fatal] and exits with the guarded code 2; when its exit is
   reapable before the master has read the frame, the frame's reason
   must still win over "exited with code 2".  A sudden death beats
   every guarded complaint, whatever the reap order. *)
let root_cause_choice () =
  let module M = Orion_net.Dist_master in
  let check what (want_rank, want_reason) (rank, reason) =
    Alcotest.(check (pair int string)) what (want_rank, want_reason)
      (rank, reason)
  in
  let digest = "rank 1: dataset digest 1 differs from the master's 2" in
  check "pending Fatal of the reaped rank"
    (1, digest)
    (M.root_cause ~dead:[ (1, Unix.WEXITED 2) ] ~fatals:[ (1, digest) ]);
  check "the dead rank's own Fatal, not an earlier peer complaint"
    (1, digest)
    (M.root_cause
       ~dead:[ (1, Unix.WEXITED 2) ]
       ~fatals:[ (0, "peer 1 closed"); (1, digest) ]);
  check "a sudden death beats a guarded Fatal"
    (0, "worker killed by signal 9")
    (M.root_cause
       ~dead:[ (1, Unix.WEXITED 2); (0, Unix.WSIGNALED 9) ]
       ~fatals:[ (1, "peer 0 closed") ]);
  check "no Fatal delivered: the exit status"
    (1, "worker exited with code 2")
    (M.root_cause ~dead:[ (1, Unix.WEXITED 2) ] ~fatals:[])

(* ------------------------------------------------------------------ *)
(* Failure path: a worker aborting mid-pass surfaces as a structured   *)
(* error within a bounded time, with no leftover workers               *)
(* ------------------------------------------------------------------ *)

let fault_injection () =
  Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
  Unix.putenv Orion_net.Dist_worker.timeout_env "30";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.timeout_env "60")
    (fun () ->
      let app = find_app "mf" in
      let t0 = Unix.gettimeofday () in
      (match run_dist app ~procs:2 ~passes:2 with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
          Alcotest.(check (option int)) "failing rank identified" (Some 1)
            de_rank;
          Alcotest.(check bool)
            (Printf.sprintf "reason names the abort: %S" de_reason)
            true
            (de_reason <> ""));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "failed fast (%.1fs)" elapsed)
        true (elapsed < 25.0))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume: a run checkpointed every pass and killed mid-pass  *)
(* by fault injection resumes from the newest checkpoint to the same   *)
(* final state as the uninterrupted run                                *)
(* ------------------------------------------------------------------ *)

module Checkpoint = Orion_store.Checkpoint

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dist_kill_and_resume name ~tolerance () =
  let app = find_app name in
  let procs = 2 and passes = 3 in
  let mode = `Distributed { Orion.Engine.procs; transport = `Unix } in
  let make () =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  (* truth: uninterrupted run; its report also tells us how many blocks
     one rank executes per pass (ep_time_parts), which positions the
     fault injection at the start of pass 2 *)
  let truth = make () in
  let report =
    Orion.Engine.run truth.Orion.App.inst_session truth ~mode ~passes ()
  in
  let blocks_per_pass = report.Orion.Engine.ep_time_parts in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orion-dist-resume-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "")
    (fun () ->
      (* killed run: rank 1 exits just before its first block of pass 2,
         after its pass-0 and pass-1 reports reached the master *)
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
      Unix.putenv Orion_net.Dist_worker.abort_after_env
        (string_of_int (2 * blocks_per_pass));
      let inst1 = make () in
      let sink ~pass_done arrays =
        ignore
          (Checkpoint.save ~dir
             (Checkpoint.snapshot ~app:name ~scale:1.0 ~pass:pass_done
                ~total_passes:passes
                ~rng:
                  (Orion.Interp.Rng.state
                     inst1.Orion.App.inst_env.Orion.Interp.rng)
                arrays))
      in
      (match
         Orion.Engine.run inst1.Orion.App.inst_session inst1 ~mode ~passes
           ~checkpoint:(1, sink) ()
       with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error _ -> ());
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "";
      (* resume from whatever the master managed to checkpoint before
         the crash surfaced (at least pass 1) *)
      match Checkpoint.latest dir with
      | None -> Alcotest.fail "killed run left no checkpoint"
      | Some (_, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "checkpoint is mid-run (pass %d)"
               s.Checkpoint.ck_pass)
            true
            (s.Checkpoint.ck_pass >= 1 && s.Checkpoint.ck_pass < passes);
          let inst2 = make () in
          Checkpoint.restore s inst2.Orion.App.inst_arrays;
          Orion.Interp.Rng.set_state
            inst2.Orion.App.inst_env.Orion.Interp.rng s.Checkpoint.ck_rng;
          ignore
            (Orion.Engine.run inst2.Orion.App.inst_session inst2 ~mode
               ~passes:(passes - s.Checkpoint.ck_pass) ());
          check_outputs
            ~what:(Printf.sprintf "%s killed-and-resumed vs uninterrupted"
                     name)
            ~tolerance truth.Orion.App.inst_outputs
            inst2.Orion.App.inst_outputs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "distributed"
    [
      ( "serialization",
        [
          qc qcheck_partition_roundtrip;
          qc qcheck_partition_select;
          tc "wire round-trip over socketpair" `Quick test_wire_roundtrip;
          tc "address strings round-trip" `Quick test_addr_roundtrip;
        ] );
      ( "happens_before",
        [ qc qcheck_block_edges_acyclic; qc qcheck_natural_order_linearizes ]
      );
      ( "comms_policies",
        [
          tc "spec strings parse and print" `Quick test_policy_spec_strings;
          qc qcheck_policy_sync_roundtrip;
          qc qcheck_policy_residual_flush;
          qc qcheck_policy_no_own_writes;
          qc qcheck_packed_partition_roundtrip;
          tc "mf delta == full" `Slow (delta_matches_full "mf");
          tc "slr delta == full" `Slow (delta_matches_full "slr");
          tc "lda delta == full" `Slow (delta_matches_full "lda");
          tc "gbt delta == full" `Slow (delta_matches_full "gbt");
          tc "mf topk drift" `Slow (lossy_policy_drift "mf" "topk:256");
          tc "mf budget drift" `Slow (lossy_policy_drift "mf" "budget:65536");
          tc "lda budget drift" `Slow
            (lossy_policy_drift "lda" "budget:65536");
        ] );
      ( "equivalence",
        [
          tc "mf procs=2" `Slow (distributed_matches_sim "mf" 2);
          tc "mf procs=4" `Slow (distributed_matches_sim "mf" 4);
          tc "slr procs=2" `Slow (distributed_matches_sim "slr" 2);
          tc "slr procs=4" `Slow (distributed_matches_sim "slr" 4);
          tc "lda procs=2" `Slow (distributed_matches_sim "lda" 2);
          tc "lda procs=4" `Slow (distributed_matches_sim "lda" 4);
          tc "gbt procs=2" `Quick (distributed_matches_sim "gbt" 2);
          tc "gbt procs=4" `Slow (distributed_matches_sim "gbt" 4);
        ] );
      ( "determinism",
        [
          tc "mf" `Slow (distributed_deterministic "mf");
          tc "slr" `Slow (distributed_deterministic "slr");
        ] );
      ( "transports",
        [
          tc "mf over tcp" `Slow tcp_smoke;
          tc "mf via exec'd workers" `Slow exec_spawn_smoke;
        ] );
      ( "telemetry",
        [
          tc "2-proc merged timeline is clock-aligned" `Quick
            distributed_telemetry_merged_timeline;
          tc "traced run reports marshal time" `Quick distributed_marshal_time;
        ]
        @ List.map
            (fun (name, args, expected) ->
              tc
                (Printf.sprintf "cli %s at --scale 3" name)
                `Quick
                (cli_distributed_at_scale args expected))
            cli_at_scale );
      ("dataset", [ tc "master data differs" `Quick dataset_digest_mismatch ]);
      ( "root_cause",
        [ tc "pending Fatal beats exit status" `Quick root_cause_choice ] );
      ( "final_gather",
        [ tc "mf gather is O(model)" `Quick final_gather_is_model_sized ] );
      ("failure", [ tc "worker abort mid-pass" `Quick fault_injection ]);
      ( "kill_and_resume",
        [
          tc "mf" `Quick (dist_kill_and_resume "mf" ~tolerance:None);
          tc "lda" `Quick (dist_kill_and_resume "lda" ~tolerance:None);
        ] );
    ]
