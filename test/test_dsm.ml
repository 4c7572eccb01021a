(* Tests for the DSM layer: DistArrays, partitioner, buffers,
   accumulators, parameter server. *)

open Orion_dsm
module V = Orion_lang.Value

(* ------------------------------------------------------------------ *)
(* DistArray                                                           *)
(* ------------------------------------------------------------------ *)

let test_dense_roundtrip () =
  let a =
    Dist_array.init_dense ~name:"a" ~dims:[| 3; 4 |]
      ~f:(fun k -> float_of_int ((k.(0) * 10) + k.(1)))
  in
  Alcotest.(check (float 0.0)) "get" 23.0 (Dist_array.get a [| 2; 3 |]);
  Dist_array.set a [| 1; 2 |] 99.0;
  Alcotest.(check (float 0.0)) "set" 99.0 (Dist_array.get a [| 1; 2 |]);
  Alcotest.(check int) "count" 12 (Dist_array.count a)

let test_sparse_roundtrip () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 100; 100 |] ~default:0.0 in
  Dist_array.set a [| 5; 7 |] 1.5;
  Dist_array.set a [| 99; 0 |] 2.5;
  Alcotest.(check (float 0.0)) "stored" 1.5 (Dist_array.get a [| 5; 7 |]);
  Alcotest.(check (float 0.0)) "default" 0.0 (Dist_array.get a [| 0; 0 |]);
  Alcotest.(check int) "count" 2 (Dist_array.count a);
  Alcotest.(check bool) "get_opt none" true
    (Dist_array.get_opt a [| 1; 1 |] = None)

let test_bounds_checking () =
  let a = Dist_array.fill_dense ~name:"b" ~dims:[| 2; 2 |] 0.0 in
  (try
     ignore (Dist_array.get a [| 2; 0 |]);
     Alcotest.fail "expected bounds error"
   with Dist_array.Out_of_bounds _ -> ());
  try
    ignore (Dist_array.get a [| 0 |]);
    Alcotest.fail "expected dim mismatch"
  with Dist_array.Dimension_mismatch _ -> ()

let test_iteration_deterministic_sorted () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 10; 10 |] ~default:0.0 in
  (* insert in scrambled order *)
  List.iter
    (fun (i, j) -> Dist_array.set a [| i; j |] (float_of_int ((i * 10) + j)))
    [ (5, 5); (0, 3); (9, 9); (2, 1); (0, 1) ];
  let keys = ref [] in
  Dist_array.iter (fun k _ -> keys := Array.to_list k :: !keys) a;
  Alcotest.(check (list (list int)))
    "ascending key order"
    [ [ 0; 1 ]; [ 0; 3 ]; [ 2; 1 ]; [ 5; 5 ]; [ 9; 9 ] ]
    (List.rev !keys)

let test_update_and_fold () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 4 |] ~default:0.0 in
  Dist_array.update a [| 2 |] (fun v -> v +. 1.0);
  Dist_array.update a [| 2 |] (fun v -> v +. 1.0);
  let sum = Dist_array.fold (fun acc _ v -> acc +. v) 0.0 a in
  Alcotest.(check (float 0.0)) "fold" 2.0 sum

let test_map_and_group_by () =
  let a =
    Dist_array.of_entries ~name:"e" ~dims:[| 3; 3 |] ~default:0.0
      [ ([| 0; 0 |], 1.0); ([| 0; 2 |], 2.0); ([| 2; 1 |], 3.0) ]
  in
  let b = Dist_array.map ~name:"b" ~f:(fun v -> v *. 2.0) a in
  Alcotest.(check (float 0.0)) "mapped" 4.0 (Dist_array.get b [| 0; 2 |]);
  let groups = Dist_array.group_by ~dim:0 a in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let g0 = List.assoc 0 groups in
  Alcotest.(check int) "group 0 size" 2 (List.length g0)

let test_slice_vec () =
  let a =
    Dist_array.init_dense ~name:"m" ~dims:[| 3; 4 |]
      ~f:(fun k -> float_of_int ((k.(0) * 10) + k.(1)))
  in
  let col = Dist_array.slice_vec a [| V.Call_dim; V.Cpoint 2 |] in
  Alcotest.(check (array (float 0.0))) "column" [| 2.0; 12.0; 22.0 |] col;
  let row_part = Dist_array.slice_vec a [| V.Cpoint 1; V.Crange (1, 3) |] in
  Alcotest.(check (array (float 0.0))) "row range" [| 11.0; 12.0; 13.0 |]
    row_part;
  Dist_array.set_slice_vec a [| V.Call_dim; V.Cpoint 0 |] [| 7.0; 8.0; 9.0 |];
  Alcotest.(check (float 0.0)) "set slice" 8.0 (Dist_array.get a [| 1; 0 |])

(* The stamped extern's unboxed slice accessors against its boxed
   [ex_get]/[ex_set], on slices whose subscripts may be out of bounds,
   reversed or empty and whose source may have the wrong length: the
   same exception and message, the same array afterwards, and every
   element a successful write touched stamped exactly once, in order. *)
let test_qcheck_stamped_slice_fast_path () =
  QCheck.Test.make ~count:500 ~name:"stamped slice fast path = boxed path"
    QCheck.(
      quad (pair (int_range 1 4) (int_range 1 5)) (pair bool bool)
        (triple (int_range (-1) 5) (int_range (-1) 6) (int_range (-1) 6))
        (pair (int_range 0 6) bool))
    (fun ((rows, cols), (sparse, whole), (p, lo, hi), (len, col_slice)) ->
      let dims = [| rows; cols |] in
      let make () =
        let a =
          if sparse then
            Dist_array.create_sparse ~name:"s" ~dims ~default:0.0
          else Dist_array.fill_dense ~name:"s" ~dims 0.0
        in
        Dist_array.set a [| 0; 0 |] 0.5;
        let stamps = ref [] in
        let ex =
          Dist_array.to_stamped_extern
            ~stamp:(fun lin -> stamps := lin :: !stamps)
            a
        in
        (a, stamps, ex)
      in
      (* the slice runs along dim [d]; the other dim sits at [p] *)
      let d = if col_slice then 0 else 1 in
      let lo, hi = if whole then (0, dims.(d) - 1) else (lo, hi) in
      let range = if whole then V.Call_dim else V.Crange (lo, hi) in
      let subs =
        if d = 0 then [| range; V.Cpoint p |] else [| V.Cpoint p; range |]
      in
      let key = if d = 0 then [| lo; p |] else [| p; lo |] in
      let src = Array.init len (fun k -> float_of_int (k + 1)) in
      let attempt f =
        match f () with () -> "ok" | exception e -> Printexc.to_string e
      in
      let a_box, st_box, ex_box = make () in
      let a_fast, st_fast, ex_fast = make () in
      let fa = Option.get ex_fast.V.ex_fast in
      let read_box = attempt (fun () -> ignore (ex_box.V.ex_get subs)) in
      let read_fast = attempt (fun () -> ignore (fa.V.fa_get_slice key d hi)) in
      let same_read =
        match (ex_box.V.ex_get subs, fa.V.fa_get_slice key d hi) with
        | V.Vvec x, y -> x = y
        | _ -> false
        | exception _ -> true
      in
      let write_box = attempt (fun () -> ex_box.V.ex_set subs (V.Vvec src)) in
      let write_fast = attempt (fun () -> fa.V.fa_set_slice key d hi src) in
      let written =
        if write_fast <> "ok" then []
        else
          List.init (hi - lo + 1) (fun k ->
              let key = Array.copy key in
              key.(d) <- lo + k;
              Dist_array.linearize a_fast key)
      in
      read_box = read_fast && same_read && write_box = write_fast
      && Dist_array.entries a_box = Dist_array.entries a_fast
      && List.rev !st_fast = written
      && !st_box = !st_fast)

let test_extern_bridge () =
  let a = Dist_array.fill_dense ~name:"x" ~dims:[| 2; 2 |] 1.0 in
  let gets = ref 0 in
  let ex = Dist_array.to_extern ~on_get:(fun _ -> incr gets) a in
  (match ex.V.ex_get [| V.Cpoint 0; V.Cpoint 1 |] with
  | V.Vfloat 1.0 -> ()
  | _ -> Alcotest.fail "extern get");
  ex.V.ex_set [| V.Cpoint 1; V.Cpoint 1 |] (V.Vfloat 5.0);
  Alcotest.(check (float 0.0)) "extern set" 5.0 (Dist_array.get a [| 1; 1 |]);
  Alcotest.(check int) "on_get hook" 1 !gets

(* the stamping extern reports exactly the cells a write changed, on
   the boxed path (points, ranges, whole dimensions) and the unboxed one *)
let test_qcheck_stamped_extern () =
  QCheck.Test.make ~count:300 ~name:"stamped extern stamps written cells"
    QCheck.(
      quad (int_range 1 5) (int_range 1 5) (int_range 0 3)
        (pair small_nat small_nat))
    (fun (rows, cols, shape, (i, j)) ->
      let a = Dist_array.fill_dense ~name:"s" ~dims:[| rows; cols |] 0.0 in
      let stamped = ref [] in
      let ex =
        Dist_array.to_stamped_extern
          ~stamp:(fun lin -> stamped := lin :: !stamped)
          a
      in
      let i = i mod rows and j = j mod cols in
      let subs =
        match shape with
        | 0 -> [| V.Cpoint i; V.Cpoint j |]
        | 1 -> [| V.Call_dim; V.Cpoint j |]
        | 2 -> [| V.Cpoint i; V.Crange (j, cols - 1) |]
        | _ -> [| V.Crange (i, rows - 1); V.Call_dim |]
      in
      let len =
        match shape with
        | 0 -> 1
        | 1 -> rows
        | 2 -> cols - j
        | _ -> cols
      in
      ex.V.ex_set subs
        (V.Vvec (Array.init len (fun k -> float_of_int (k + 1))));
      (match ex.V.ex_fast with
      | Some fa -> fa.V.fa_set [| rows - 1; 0 |] 99.0
      | None -> ());
      let changed =
        Dist_array.fold
          (fun acc key v ->
            if v <> 0.0 then Dist_array.linearize a key :: acc else acc)
          [] a
      in
      ex.V.ex_fast <> None
      && List.sort_uniq compare !stamped = List.sort compare changed)

let test_text_file_and_checkpoint () =
  let path = Filename.temp_file "orion" ".txt" in
  let oc = open_out path in
  output_string oc "0 1 4.5\n2 2 1.5\n# comment-free format\n";
  close_out oc;
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | [ i; j; v ] -> (
        try Some ([| int_of_string i; int_of_string j |], float_of_string v)
        with Failure _ -> None)
    | _ -> None
  in
  let a =
    Dist_array.text_file ~name:"t" ~dims:[| 3; 3 |] ~default:0.0 ~parse_line
      path
  in
  Alcotest.(check int) "loaded entries" 2 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "value" 4.5 (Dist_array.get a [| 0; 1 |]);
  let ckpt = Filename.temp_file "orion" ".ckpt" in
  Dist_array.checkpoint a ckpt;
  let b : float Dist_array.t = Dist_array.restore ~name:"t2" ckpt in
  Alcotest.(check (float 0.0)) "restored" 1.5 (Dist_array.get b [| 2; 2 |]);
  Sys.remove path;
  Sys.remove ckpt

let test_qcheck_linearize_roundtrip () =
  QCheck.Test.make ~count:300 ~name:"linearize/delinearize roundtrip"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (int_range 1 12))
        (list_of_size (Gen.int_range 1 4) (int_range 0 1000)))
    (fun (dims_l, key_seed) ->
      let dims = Array.of_list dims_l in
      QCheck.assume (List.length key_seed = Array.length dims);
      let key =
        Array.of_list (List.mapi (fun i s -> s mod dims.(i)) key_seed)
      in
      let a = Dist_array.create_sparse ~name:"q" ~dims ~default:0.0 in
      let lin = Dist_array.linearize a key in
      Dist_array.delinearize a lin = key)

(* ------------------------------------------------------------------ *)
(* Lazy pipelines                                                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_laziness () =
  (* the map function must not run until materialize *)
  let runs = ref 0 in
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 4 |]
      [ ([| 0 |], 1.0); ([| 2 |], 2.0) ]
    |> Pipeline.map ~f:(fun _ v ->
           incr runs;
           v *. 10.0)
  in
  Alcotest.(check int) "not evaluated yet" 0 !runs;
  Alcotest.(check int) "one recorded op" 1 (Pipeline.recorded_ops p);
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "evaluated once per entry" 2 !runs;
  Alcotest.(check (float 0.0)) "mapped" 20.0 (Dist_array.get a [| 2 |])

let test_pipeline_fusion_single_pass () =
  (* chained maps fuse: each entry visits the chain exactly once *)
  let first = ref 0 and second = ref 0 in
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 3 |]
      [ ([| 0 |], 1.0); ([| 1 |], 2.0); ([| 2 |], 3.0) ]
    |> Pipeline.map ~f:(fun _ v ->
           incr first;
           v +. 1.0)
    |> Pipeline.map ~f:(fun _ v ->
           incr second;
           v *. 2.0)
  in
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "first ran 3x" 3 !first;
  Alcotest.(check int) "second ran 3x" 3 !second;
  Alcotest.(check (float 0.0)) "composed" 8.0 (Dist_array.get a [| 2 |])

let test_pipeline_filter () =
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 10 |]
      (List.init 10 (fun i -> ([| i |], float_of_int i)))
    |> Pipeline.filter ~f:(fun _ v -> v >= 5.0)
    |> Pipeline.map ~f:(fun _ v -> v *. 2.0)
  in
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "filtered count" 5 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "kept and mapped" 18.0 (Dist_array.get a [| 9 |])

let test_pipeline_text_file () =
  let path = Filename.temp_file "orion" ".txt" in
  let oc = open_out path in
  output_string oc "0 1.5
1 -2.0
2 3.0
";
  close_out oc;
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | [ i; v ] -> Some ([| int_of_string i |], float_of_string v)
    | _ -> None
  in
  let a =
    Pipeline.text_file ~name:"t" ~dims:[| 3 |] ~parse_line path
    |> Pipeline.filter ~f:(fun _ v -> v > 0.0)
    |> Pipeline.map ~f:(fun key v -> v +. float_of_int key.(0))
    |> Pipeline.materialize ~default:0.0
  in
  Sys.remove path;
  Alcotest.(check int) "two survive" 2 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "keyed map" 5.0 (Dist_array.get a [| 2 |])

let test_pipeline_of_dist_array () =
  let base = Dist_array.fill_dense ~name:"b" ~dims:[| 2; 2 |] 3.0 in
  let a =
    Pipeline.of_dist_array base
    |> Pipeline.map ~f:(fun _ v -> v *. v)
    |> Pipeline.materialize ~default:0.0
  in
  Alcotest.(check (float 0.0)) "squared" 9.0 (Dist_array.get a [| 1; 1 |])

let test_pipeline_fusion_law_qcheck () =
  (* materialize (map f (map g p)) = materialize (map (f . g) p) *)
  QCheck.Test.make ~count:200 ~name:"pipeline map fusion law"
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-100.0) 100.0))
    (fun values ->
      let entries = List.mapi (fun i v -> ([| i |], v)) values in
      let dims = [| List.length values |] in
      let f _ v = (v *. 2.0) +. 1.0 and g _ v = v -. 3.0 in
      let chained =
        Pipeline.of_entries ~name:"p" ~dims entries
        |> Pipeline.map ~f:g |> Pipeline.map ~f
        |> Pipeline.materialize ~default:0.0
      in
      let composed =
        Pipeline.of_entries ~name:"p" ~dims entries
        |> Pipeline.map ~f:(fun k v -> f k (g k v))
        |> Pipeline.materialize ~default:0.0
      in
      Dist_array.entries chained = Dist_array.entries composed)

let test_group_by_partitions_entries_qcheck () =
  QCheck.Test.make ~count:200 ~name:"group_by partitions the entries"
    QCheck.(
      list_of_size (Gen.int_range 1 30) (pair (int_range 0 5) (int_range 0 5)))
    (fun pairs ->
      let entries =
        List.sort_uniq compare pairs
        |> List.map (fun (i, j) -> ([| i; j |], float_of_int ((i * 7) + j)))
      in
      QCheck.assume (entries <> []);
      let a =
        Dist_array.of_entries ~name:"g" ~dims:[| 6; 6 |] ~default:0.0 entries
      in
      let groups = Dist_array.group_by ~dim:0 a in
      let total =
        List.fold_left (fun acc (_, l) -> acc + List.length l) 0 groups
      in
      total = Dist_array.count a
      && List.for_all
           (fun (g, l) -> List.for_all (fun (key, _) -> key.(0) = g) l)
           groups)

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let test_equal_ranges () =
  let b = Partitioner.equal_ranges ~dim_size:10 ~parts:3 in
  Alcotest.(check (array int)) "boundaries" [| 0; 3; 6; 10 |] b;
  Alcotest.(check int) "part of 0" 0 (Partitioner.part_of ~boundaries:b 0);
  Alcotest.(check int) "part of 5" 1 (Partitioner.part_of ~boundaries:b 5);
  Alcotest.(check int) "part of 9" 2 (Partitioner.part_of ~boundaries:b 9)

let test_balanced_ranges_skewed () =
  (* 80% of entries in the first index: balanced partitioning must not
     put everything in partition 0 *)
  let counts = [| 800; 25; 25; 25; 25; 25; 25; 25; 25 |] in
  let b = Partitioner.balanced_ranges ~counts ~parts:4 in
  Alcotest.(check int) "4 parts" 4 (Partitioner.num_parts b);
  let sizes = Partitioner.part_sizes ~boundaries:b ~counts in
  (* the skewed index dominates its partition but the rest spread out *)
  Alcotest.(check bool) "first cut right after hot index" true (b.(1) = 1);
  Alcotest.(check bool) "all partitions nonempty" true
    (Array.for_all (fun s -> s > 0) sizes)

let test_balanced_ranges_total_preserved () =
  QCheck.Test.make ~count:200 ~name:"balanced ranges cover everything"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 40) (int_range 0 50))
        (int_range 1 8))
    (fun (counts_l, parts) ->
      let counts = Array.of_list counts_l in
      let b = Partitioner.balanced_ranges ~counts ~parts in
      let sizes = Partitioner.part_sizes ~boundaries:b ~counts in
      b.(0) = 0
      && b.(Partitioner.num_parts b) = Array.length counts
      && Array.fold_left ( + ) 0 sizes = Array.fold_left ( + ) 0 counts
      && Array.for_all2 ( <= ) (Array.sub b 0 (Partitioner.num_parts b))
           (Array.sub b 1 (Partitioner.num_parts b)))

let test_part_of_boundaries_qcheck () =
  QCheck.Test.make ~count:200 ~name:"part_of respects boundaries"
    QCheck.(
      pair (list_of_size (Gen.int_range 1 30) (int_range 0 20)) (int_range 1 6))
    (fun (counts_l, parts) ->
      let counts = Array.of_list counts_l in
      QCheck.assume (Array.length counts >= parts);
      let b = Partitioner.balanced_ranges ~counts ~parts in
      let ok = ref true in
      for i = 0 to Array.length counts - 1 do
        let p = Partitioner.part_of ~boundaries:b i in
        if not (b.(p) <= i && i < b.(p + 1)) then ok := false
      done;
      !ok)

let test_histogram () =
  let a =
    Dist_array.of_entries ~name:"h" ~dims:[| 4; 2 |] ~default:0.0
      [ ([| 0; 0 |], 1.0); ([| 0; 1 |], 1.0); ([| 3; 0 |], 1.0) ]
  in
  Alcotest.(check (array int)) "histogram dim0" [| 2; 0; 0; 1 |]
    (Partitioner.histogram a ~dim:0)

let test_randomize_preserves_entries () =
  let entries =
    List.init 20 (fun i -> ([| i mod 10; i / 10 |], float_of_int i))
  in
  let a = Dist_array.of_entries ~name:"r" ~dims:[| 10; 2 |] ~default:0.0 entries in
  let b, perms = Partitioner.randomize a ~dims_to_shuffle:[ 0 ] in
  Alcotest.(check int) "count preserved" (Dist_array.count a)
    (Dist_array.count b);
  (* values follow their permuted keys *)
  List.iter
    (fun (key, v) ->
      let key' = [| perms.(0).(key.(0)); key.(1) |] in
      Alcotest.(check (float 0.0)) "moved value" v (Dist_array.get b key'))
    entries;
  (* dim 1 untouched *)
  Alcotest.(check (array int)) "dim1 identity" [| 0; 1 |] perms.(1)

(* ------------------------------------------------------------------ *)
(* Buffers and accumulators                                            *)
(* ------------------------------------------------------------------ *)

let test_buffer_combine_and_flush () =
  let b = Buffer.create ~name:"buf" ~num_workers:2 ~combine:( +. ) in
  Buffer.update b ~worker:0 ~key:5 1.0;
  Buffer.update b ~worker:0 ~key:5 2.0;
  Buffer.update b ~worker:0 ~key:3 10.0;
  Buffer.update b ~worker:1 ~key:5 100.0;
  Alcotest.(check int) "pending w0" 2 (Buffer.pending_count b ~worker:0);
  let items = Buffer.flush b ~worker:0 in
  Alcotest.(check bool) "sorted and combined" true
    (items = [ (3, 10.0); (5, 3.0) ]);
  Alcotest.(check int) "drained" 0 (Buffer.pending_count b ~worker:0);
  Alcotest.(check int) "w1 untouched" 1 (Buffer.pending_count b ~worker:1)

let test_buffer_flush_apply_udf () =
  let target = Array.make 10 1.0 in
  let b = Buffer.create ~name:"buf" ~num_workers:1 ~combine:( +. ) in
  Buffer.update b ~worker:0 ~key:2 0.5;
  Buffer.update b ~worker:0 ~key:7 (-0.25);
  let applied =
    Buffer.flush_apply b ~worker:0 ~udf:(fun k u ->
        target.(k) <- target.(k) +. u)
  in
  Alcotest.(check int) "two applied" 2 applied;
  Alcotest.(check (float 0.0)) "applied value" 1.5 target.(2);
  Alcotest.(check (float 0.0)) "applied value 2" 0.75 target.(7)

let test_accumulator () =
  let acc = Accumulator.create ~name:"err" ~num_workers:3 ~init:0.0 in
  Accumulator.add acc ~worker:0 ~op:( +. ) 1.0;
  Accumulator.add acc ~worker:1 ~op:( +. ) 2.0;
  Accumulator.add acc ~worker:1 ~op:( +. ) 3.0;
  Alcotest.(check (float 0.0)) "aggregate" 6.0
    (Accumulator.aggregated acc ~op:( +. ));
  Accumulator.reset acc;
  Alcotest.(check (float 0.0)) "reset" 0.0
    (Accumulator.aggregated acc ~op:( +. ))

let test_accumulator_nonneutral_init () =
  (* regression: [aggregated] used to seed the fold with [init] on top
     of the per-worker instances (which already start at [init]),
     counting a non-neutral init num_workers + 1 times *)
  let acc = Accumulator.create ~name:"count" ~num_workers:4 ~init:1.0 in
  Alcotest.(check (float 0.0)) "init counted once per worker" 4.0
    (Accumulator.aggregated acc ~op:( +. ));
  Accumulator.add acc ~worker:2 ~op:( +. ) 10.0;
  Alcotest.(check (float 0.0)) "adds on top" 14.0
    (Accumulator.aggregated acc ~op:( +. ));
  (* max with a floor init: the floor must not dominate real values *)
  let m = Accumulator.create ~name:"peak" ~num_workers:2 ~init:(-1e30) in
  Accumulator.add m ~worker:0 ~op:max 3.0;
  Accumulator.add m ~worker:1 ~op:max 7.0;
  Alcotest.(check (float 0.0)) "max aggregate" 7.0
    (Accumulator.aggregated m ~op:max)

let test_pipeline_rejects_bad_keys () =
  (* a malformed source entry fails at materialize with a message
     naming the pipeline, key and dims — not later inside the
     partitioner *)
  let expect_invalid msg p =
    Alcotest.check_raises "materialize rejects" (Invalid_argument msg)
      (fun () -> ignore (Pipeline.materialize ~default:0.0 p))
  in
  expect_invalid
    "Pipeline.materialize(oob): key (3, 99) out of bounds for declared dims \
     10x5"
    (Pipeline.of_entries ~name:"oob" ~dims:[| 10; 5 |]
       [ ([| 0; 0 |], 1.0); ([| 3; 99 |], 2.0) ]);
  expect_invalid
    "Pipeline.materialize(neg): key (-1) out of bounds for declared dims 4"
    (Pipeline.of_entries ~name:"neg" ~dims:[| 4 |] [ ([| -1 |], 1.0) ]);
  expect_invalid
    "Pipeline.materialize(arity): key (1, 2) out of bounds for declared dims 4"
    (Pipeline.of_entries ~name:"arity" ~dims:[| 4 |] [ ([| 1; 2 |], 1.0) ]);
  (* a parser emitting out-of-range keys is caught too *)
  let path = Filename.temp_file "orion_pipe" ".txt" in
  let oc = open_out path in
  output_string oc "0 1.0\n9 2.0\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_invalid
        "Pipeline.materialize(t): key (9) out of bounds for declared dims 3"
        (Pipeline.text_file ~name:"t" ~dims:[| 3 |]
           ~parse_line:(fun line ->
             match String.split_on_char ' ' line with
             | [ k; v ] -> Some ([| int_of_string k |], float_of_string v)
             | _ -> None)
           path))

(* ------------------------------------------------------------------ *)
(* Parameter server                                                    *)
(* ------------------------------------------------------------------ *)

let mk_cluster () =
  Orion_sim.Cluster.create ~num_machines:2 ~workers_per_machine:2
    ~cost:Orion_sim.Cost_model.default ()

let test_ps_local_visibility () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:10 ~init:(fun _ -> 0.0)
  in
  Param_server.update ps ~worker:0 3 1.5;
  Alcotest.(check (float 0.0)) "own update visible" 1.5
    (Param_server.read ps ~worker:0 3);
  Alcotest.(check (float 0.0)) "other worker does not see it" 0.0
    (Param_server.read ps ~worker:1 3);
  Alcotest.(check (float 0.0)) "master unchanged" 0.0 (Param_server.master ps).(3)

let test_ps_sync_aggregates () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:4 ~init:(fun _ -> 0.0)
  in
  Param_server.update ps ~worker:0 0 1.0;
  Param_server.update ps ~worker:1 0 2.0;
  Param_server.update ps ~worker:2 1 5.0;
  let t0 = Orion_sim.Cluster.now c in
  Param_server.sync ps;
  Alcotest.(check (float 0.0)) "summed" 3.0 (Param_server.master ps).(0);
  Alcotest.(check (float 0.0)) "other key" 5.0 (Param_server.master ps).(1);
  (* all caches refreshed *)
  Alcotest.(check (float 0.0)) "cache refreshed" 3.0
    (Param_server.read ps ~worker:3 0);
  Alcotest.(check bool) "sync costs time" true (Orion_sim.Cluster.now c > t0)

let test_ps_managed_comm_topk () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:8 ~init:(fun _ -> 0.0)
  in
  (* worker 0 has a big and a small pending delta; budget allows 1 *)
  Param_server.update ps ~worker:0 1 10.0;
  Param_server.update ps ~worker:0 2 0.1;
  let bytes = Param_server.communicate_round ps ~budget_bytes_per_worker:24.0 in
  Alcotest.(check bool) "sent something" true (bytes > 0.0);
  Alcotest.(check (float 0.0)) "large delta communicated" 10.0
    (Param_server.master ps).(1);
  Alcotest.(check (float 0.0)) "small delta still pending" 0.0
    (Param_server.master ps).(2);
  (* other workers' caches refreshed with the fresh value *)
  Alcotest.(check (float 0.0)) "fresh value propagated" 10.0
    (Param_server.read ps ~worker:3 1);
  (* worker 0 keeps seeing its pending small delta *)
  Alcotest.(check (float 0.0)) "pending visible locally" 0.1
    (Param_server.read ps ~worker:0 2)

let test_ps_random_access_charges_latency () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:4 ~init:float_of_int
  in
  let t0 = Orion_sim.Cluster.clock c 1 in
  let v = Param_server.random_access_read ps ~worker:1 2 in
  Alcotest.(check (float 0.0)) "value" 2.0 v;
  Alcotest.(check bool) "latency charged" true
    (Orion_sim.Cluster.clock c 1 -. t0 >= 2.0 *. 1e-4)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsm"
    [
      ( "dist_array",
        [
          tc "dense roundtrip" `Quick test_dense_roundtrip;
          tc "sparse roundtrip" `Quick test_sparse_roundtrip;
          tc "bounds" `Quick test_bounds_checking;
          tc "sorted iteration" `Quick test_iteration_deterministic_sorted;
          tc "update/fold" `Quick test_update_and_fold;
          tc "map/group_by" `Quick test_map_and_group_by;
          tc "slice vec" `Quick test_slice_vec;
          tc "extern bridge" `Quick test_extern_bridge;
          tc "text file + checkpoint" `Quick test_text_file_and_checkpoint;
          qc (test_qcheck_linearize_roundtrip ());
          qc (test_qcheck_stamped_extern ());
          qc (test_qcheck_stamped_slice_fast_path ());
        ] );
      ( "pipeline",
        [
          tc "laziness" `Quick test_pipeline_laziness;
          tc "fusion single pass" `Quick test_pipeline_fusion_single_pass;
          tc "filter" `Quick test_pipeline_filter;
          tc "text file" `Quick test_pipeline_text_file;
          tc "of dist array" `Quick test_pipeline_of_dist_array;
          tc "rejects bad keys" `Quick test_pipeline_rejects_bad_keys;
          qc (test_pipeline_fusion_law_qcheck ());
          qc (test_group_by_partitions_entries_qcheck ());
        ] );
      ( "partitioner",
        [
          tc "equal ranges" `Quick test_equal_ranges;
          tc "balanced skewed" `Quick test_balanced_ranges_skewed;
          qc (test_balanced_ranges_total_preserved ());
          qc (test_part_of_boundaries_qcheck ());
          tc "histogram" `Quick test_histogram;
          tc "randomize" `Quick test_randomize_preserves_entries;
        ] );
      ( "buffer",
        [
          tc "combine/flush" `Quick test_buffer_combine_and_flush;
          tc "flush apply udf" `Quick test_buffer_flush_apply_udf;
          tc "accumulator" `Quick test_accumulator;
          tc "accumulator non-neutral init" `Quick
            test_accumulator_nonneutral_init;
        ] );
      ( "param_server",
        [
          tc "local visibility" `Quick test_ps_local_visibility;
          tc "sync aggregates" `Quick test_ps_sync_aggregates;
          tc "managed comm topk" `Quick test_ps_managed_comm_topk;
          tc "random access latency" `Quick test_ps_random_access_charges_latency;
        ] );
    ]
