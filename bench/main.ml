(* Benchmark harness: one Bechamel micro-benchmark per paper table /
   figure (measuring the kernel that experiment exercises), followed by
   the full experiment reproductions from {!Experiments}.

   Usage:
     dune exec bench/main.exe                  # micro + metrics + all experiments
     dune exec bench/main.exe -- fig9b table3  # selected experiments
     dune exec bench/main.exe -- micro         # micro-benchmarks only
     dune exec bench/main.exe -- metrics       # per-pass executor metrics only
     ORION_BENCH_SCALE=2 dune exec bench/main.exe   # larger datasets *)

open Bechamel
open Toolkit
open Orion_apps

(* ------------------------------------------------------------------ *)
(* Micro-benchmark kernels (one per table/figure)                      *)
(* ------------------------------------------------------------------ *)

let mf_data =
  lazy
    (Orion_data.Ratings.generate ~num_users:200 ~num_items:150
       ~num_ratings:5000 ())

let lda_corpus =
  lazy
    (Orion_data.Corpus.generate ~num_docs:100 ~vocab_size:120 ~avg_doc_len:25
       ~num_topics_truth:5 ())

(* Table 2 / Fig 6: parse + analyze the SGD MF script *)
let bench_analysis =
  Test.make ~name:"table2_static_analysis"
    (Staged.stage (fun () ->
         let program = Orion.Parser.parse_program Sgd_mf.script in
         let loop = List.hd (Orion.Refs.find_parallel_loops program) in
         let info =
           Orion.Refs.analyze_loop
             ~dist_vars:[ "ratings"; "W"; "H" ]
             ~buffered_arrays:[] ~iter_space_ndims:2 loop
         in
         ignore (Orion.Depanalysis.analyze info)))

(* Fig 9a/9b: the SGD MF loop-body kernel (per 1000 ratings) *)
let bench_mf_kernel =
  lazy
    (let data = Lazy.force mf_data in
     let model =
       Sgd_mf.init_model ~rank:16 ~num_users:data.num_users
         ~num_items:data.num_items ()
     in
     let entries = Orion.Dist_array.entries data.ratings in
     Test.make ~name:"fig9_mf_body_1k"
       (Staged.stage (fun () ->
            for i = 0 to 999 do
              let key, v = entries.(i mod Array.length entries) in
              Sgd_mf.body model ~step_size:0.005 ~worker:0 ~key ~value:v
            done)))

(* Fig 9c / 10c / 11: the LDA Gibbs-sampling kernel (per 100 tokens) *)
let bench_lda_kernel =
  lazy
    (let corpus = Lazy.force lda_corpus in
     let model = Lda.init_model ~num_topics:20 ~corpus () in
     let entries = Orion.Dist_array.entries corpus.tokens in
     Test.make ~name:"fig9c_lda_body_100"
       (Staged.stage (fun () ->
            for i = 0 to 99 do
              let key, v = entries.(i mod Array.length entries) in
              Lda.body model ~worker:0 ~key ~value:v
            done)))

(* Table 3 / Fig 8: schedule construction for the 2D unordered plan *)
let bench_schedule =
  lazy
    (let data = Lazy.force mf_data in
     Test.make ~name:"table3_partition_2d"
       (Staged.stage (fun () ->
            ignore
              (Orion.Schedule.partition_2d ~shuffle_seed:17 data.ratings
                 ~space_dim:0 ~time_dim:1 ~space_parts:8 ~time_parts:16))))

(* Fig 10: one managed-communication round on a parameter server *)
let bench_cm_round =
  lazy
    (let cluster =
       Orion.Cluster.create ~num_machines:2 ~workers_per_machine:2
         ~cost:Orion.Cost_model.default ()
     in
     let ps =
       Orion.Param_server.create ~cluster ~name:"w" ~size:10_000
         ~init:(fun _ -> 0.0)
     in
     let rng = Orion_data.Rng.create 3 in
     Test.make ~name:"fig10_cm_round"
       (Staged.stage (fun () ->
            for _ = 1 to 200 do
              Orion.Param_server.update ps
                ~worker:(Orion_data.Rng.int rng 4)
                (Orion_data.Rng.int rng 10_000)
                (Orion_data.Rng.float rng)
            done;
            ignore
              (Orion.Param_server.communicate_round ps
                 ~budget_bytes_per_worker:2000.0))))

(* Fig 12: bandwidth recorder ingestion *)
let bench_recorder =
  Test.make ~name:"fig12_recorder"
    (Staged.stage (fun () ->
         let r = Orion_sim.Recorder.create () in
         for i = 0 to 99 do
           Orion_sim.Recorder.record r
             ~start_sec:(float_of_int i *. 0.13)
             ~duration_sec:0.4 ~bytes:1e5
         done))

(* Fig 13: the TF-style dense minibatch gradient kernel *)
let bench_tf_minibatch =
  lazy
    (let data = Lazy.force mf_data in
     Test.make ~name:"fig13_tf_minibatch"
       (Staged.stage (fun () ->
            ignore
              (Orion_baselines.Tf_mf.train
                 ~config:
                   {
                     Orion_baselines.Tf_mf.default_config with
                     rank = 8;
                     minibatch = 2500;
                     epochs = 1;
                   }
                 ~data ()))))

(* §6.3: synthesizing + running the prefetch slice for one sample *)
let bench_prefetch =
  lazy
    (let program = Orion.Parser.parse_program Slr.script in
     let body, key_var, value_var =
       match Orion.Refs.find_parallel_loops program with
       | { Orion.Ast.sk = Orion.Ast.For { kind = Each_loop { key; value; _ }; body; _ }; _ }
         :: _ ->
           (body, key, value)
       | _ -> assert false
     in
     let generated, _ =
       Orion.Prefetch.synthesize
         ~dist_vars:[ "w"; "w_buf"; "samples" ]
         ~targets:[ "w" ] body
     in
     let session =
       Orion.create_session ~num_machines:1 ~workers_per_machine:1 ()
     in
     let sample =
       Orion_data.Sparse_features.
         {
           label = 1.0;
           features = Array.init 20 (fun i -> i * 3);
           values = Array.make 20 1.0;
         }
     in
     Test.make ~name:"s6.3_prefetch_slice"
       (Staged.stage (fun () ->
            ignore
              (Orion.run_prefetch_program session ~generated ~key_var
                 ~value_var ~key:[| 0 |]
                 ~value:(Orion_data.Sparse_features.sample_to_value sample)
                 ~bindings:[ ("step_size", Orion.Value.Vfloat 0.1) ]))))

let micro_tests () =
  Test.make_grouped ~name:"orion"
    [
      bench_analysis;
      Lazy.force bench_mf_kernel;
      Lazy.force bench_lda_kernel;
      Lazy.force bench_schedule;
      Lazy.force bench_cm_round;
      bench_recorder;
      Lazy.force bench_tf_minibatch;
      Lazy.force bench_prefetch;
    ]

let run_micro () =
  print_endline "Micro-benchmarks (Bechamel; one kernel per table/figure)";
  print_endline "=========================================================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-40s %14.1f ns/run\n" name est
      | Some [] | None -> Printf.printf "%-40s %14s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Per-pass executor metrics: SGD MF under every strategy, with the
   trace-derived straggler ratio / barrier-wait fraction / bytes by
   DistArray printed per pass                                          *)
(* ------------------------------------------------------------------ *)

let run_metrics () =
  print_endline "\nPer-pass executor metrics (SGD MF under every strategy)";
  print_endline "=======================================================";
  let data = Lazy.force mf_data in
  let machines = 4 and wpm = 2 in
  let rank = 16 in
  let passes = 3 in
  let strategies =
    [ "serial"; "1d"; "2d-ordered"; "2d-unordered"; "time-major" ]
  in
  List.iter
    (fun strat ->
      let cluster =
        Orion.Cluster.create ~num_machines:machines ~workers_per_machine:wpm
          ~cost:Orion.Cost_model.default ()
      in
      let workers = Orion.Cluster.num_workers cluster in
      let model =
        Sgd_mf.init_model ~rank ~num_users:data.num_users
          ~num_items:data.num_items ()
      in
      let body ~worker ~key ~value =
        Sgd_mf.body model ~step_size:0.005 ~worker ~key ~value
      in
      let compute = Orion.Executor.Per_entry (4e-8 *. float_of_int rank) in
      let h_bytes =
        float_of_int (rank * data.num_items) *. 8.0 /. float_of_int workers
      in
      let run_pass =
        match strat with
        | "serial" ->
            fun () ->
              ignore (Orion.Executor.run_serial cluster ~compute data.ratings body)
        | "1d" ->
            let s =
              Orion.Schedule.partition_1d data.ratings ~space_dim:0
                ~space_parts:workers
            in
            fun () -> ignore (Orion.Executor.run_1d cluster ~compute s body)
        | "2d-ordered" ->
            let s =
              Orion.Schedule.partition_2d data.ratings ~space_dim:0 ~time_dim:1
                ~space_parts:workers ~time_parts:workers
            in
            fun () ->
              ignore
                (Orion.Executor.run_2d_ordered cluster ~compute
                   ~rotated_label:"H" ~rotated_bytes_per_partition:h_bytes s
                   body)
        | "2d-unordered" ->
            let depth = 2 in
            let s =
              Orion.Schedule.partition_2d data.ratings ~space_dim:0 ~time_dim:1
                ~space_parts:workers ~time_parts:(workers * depth)
            in
            fun () ->
              ignore
                (Orion.Executor.run_2d_unordered cluster ~compute
                   ~pipeline_depth:depth ~rotated_label:"H"
                   ~rotated_bytes_per_partition:(h_bytes /. float_of_int depth)
                   s body)
        | _ (* time-major *) ->
            let s =
              Orion.Schedule.partition_unimodular data.ratings
                ~matrix:[| [| 1; 1 |]; [| 0; 1 |] |]
                ~space_parts:workers ~time_parts:0
            in
            fun () ->
              ignore
                (Orion.Executor.run_time_major cluster ~compute ~comm_label:"H"
                   ~comm_bytes_per_step:(h_bytes /. 16.0) s body)
      in
      Printf.printf "\n%s:\n" strat;
      for pass = 1 to passes do
        let since = Orion.Cluster.now cluster in
        run_pass ();
        Printf.printf "  pass %d | %s\n" pass
          (Orion.Metrics.summary (Orion.Cluster.metrics ~since cluster))
      done)
    strategies

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      run_micro ();
      run_metrics ();
      Experiments.all ()
  | [ "micro" ] -> run_micro ()
  | [ "metrics" ] -> run_metrics ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name Experiments.registry with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst Experiments.registry)))
        names
