(* The benchmark's workloads.  Each is one training job (an app, its
   seeded Zipf-skewed dataset, a pass count and a backend) run as a
   closed loop: the next training call starts only after the previous
   one finished and was checked.  Why each one is here is recorded in
   BENCHMARK.json. *)

type backend = Pool of int  (** domains *) | Dist of int  (** processes *)

type t = {
  name : string;
  app : string;
  dataset : [ `Ratings | `Corpus ];
  spec : Orion_store.Gen.spec;
  passes : int;
  backend : backend;
  machines : int;
  workers_per_machine : int;
  checkpoint_every_pass : bool;
}

(** Dataset scale of the real workloads: 1% of MovieLens-10M (100k
    ratings) and 1% of NYTimes. *)
let default_data_scale = 0.01

let all ~data_scale =
  let ratings = Orion_store.Gen.movielens_spec ~scale:data_scale () in
  let corpus = Orion_store.Gen.nytimes_spec ~scale:data_scale () in
  [
    (* distributed instances are shaped one worker process per
       simulated machine, as [orion run --procs] builds them *)
    {
      name = "mf-dist2";
      app = "mf";
      dataset = `Ratings;
      spec = ratings;
      passes = 10;
      backend = Dist 2;
      machines = 2;
      workers_per_machine = 1;
      checkpoint_every_pass = false;
    };
    (* the domain pool on the instance [orion run --domains 2] builds
       (its default 4 machines x 2 workers) *)
    {
      name = "mf-pool2";
      app = "mf";
      dataset = `Ratings;
      spec = ratings;
      passes = 10;
      backend = Pool 2;
      machines = 4;
      workers_per_machine = 2;
      checkpoint_every_pass = false;
    };
    {
      name = "lda-dist2-ckpt";
      app = "lda";
      dataset = `Corpus;
      spec = corpus;
      passes = 3;
      backend = Dist 2;
      machines = 2;
      workers_per_machine = 1;
      checkpoint_every_pass = true;
    };
  ]

let find ~data_scale name =
  List.find_opt (fun w -> w.name = name) (all ~data_scale)

let mode w : Orion.Engine.mode =
  match w.backend with
  | Pool n -> `Parallel n
  | Dist procs -> `Distributed { Orion.Engine.procs; transport = `Unix }

let data_env w =
  match w.dataset with
  | `Ratings -> Orion_apps.Registry.ratings_dir_env
  | `Corpus -> Orion_apps.Registry.corpus_dir_env

let spec_json (spec : Orion_store.Gen.spec) : Orion.Report.json =
  let open Orion.Report in
  match spec with
  | Ratings r ->
      Obj
        [
          ("kind", Str "ratings");
          ("num_users", Int r.num_users);
          ("num_items", Int r.num_items);
          ("num_ratings", Int r.num_ratings);
          ("skew", Float r.skew);
          ("rank", Int r.rank);
          ("noise", Float r.noise);
        ]
  | Corpus c ->
      Obj
        [
          ("kind", Str "corpus");
          ("num_docs", Int c.num_docs);
          ("vocab_size", Int c.vocab_size);
          ("avg_doc_len", Int c.avg_doc_len);
          ("num_topics", Int c.num_topics);
          ("skew", Float c.skew);
        ]
  | Features _ -> Obj [ ("kind", Str "features") ]
