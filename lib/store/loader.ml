(* Shard directory -> in-memory dataset, streaming: records are
   inserted into the target Dist_array as they come off the reader. *)

open Orion_dsm

let check_schema dir want headers =
  match headers with
  | [] -> raise (Shard.Corrupt { path = dir; offset = 0; reason = "empty dataset" })
  | h :: _ ->
      if h.Shard.h_schema <> want then
        raise
          (Shard.Corrupt
             {
               path = dir;
               offset = 0;
               reason =
                 Printf.sprintf "schema %S where %S was expected" h.Shard.h_schema
                   want;
             });
      h

let meta_int dir key =
  let h = List.hd (Shard.dataset_headers dir) in
  match List.assoc_opt key h.Shard.h_meta with
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          raise
            (Shard.Corrupt
               {
                 path = dir;
                 offset = 0;
                 reason = Printf.sprintf "metadata %S is not an integer: %S" key v;
               }))
  | None ->
      raise
        (Shard.Corrupt
           {
             path = dir;
             offset = 0;
             reason = Printf.sprintf "missing metadata key %S" key;
           })

let dataset_count dir =
  Shard.dataset_headers dir
  |> List.fold_left (fun acc h -> acc + h.Shard.h_count) 0

let header_int h dir key =
  match List.assoc_opt key h.Shard.h_meta with
  | Some v -> int_of_string v
  | None ->
      raise
        (Shard.Corrupt
           {
             path = dir;
             offset = 0;
             reason = Printf.sprintf "missing metadata key %S" key;
           })

(* stream the fixed 16-byte records of a dataset's shards in place *)
let iter_fixed16 ~what dir headers f =
  List.iteri
    (fun i _ ->
      let path = Shard.shard_path ~dir i in
      Shard.iter_in_place path ~f:(fun b pos len ->
          Gen.decode_fixed16 ~path ~what b pos len f))
    headers

let ratings dir =
  let headers = Shard.dataset_headers dir in
  let h0 = check_schema dir "ratings-v1" headers in
  let num_users = header_int h0 dir "num_users" in
  let num_items = header_int h0 dir "num_items" in
  let arr =
    Dist_array.create_sparse ~name:"ratings" ~dims:[| num_users; num_items |]
      ~default:0.0
  in
  iter_fixed16 ~what:"rating" dir headers (fun user item value ->
      Dist_array.set_lin arr (Dist_array.linearize2 arr user item) value);
  {
    Orion_data.Ratings.ratings = arr;
    num_users;
    num_items;
    (* duplicate (user, item) draws overwrite, so the live entry count
       can be below the record count *)
    num_ratings = Dist_array.count arr;
    rank_truth = 0;
  }

let features dir =
  let headers = Shard.dataset_headers dir in
  let h0 = check_schema dir "features-v1" headers in
  let num_samples = header_int h0 dir "num_samples" in
  let num_features = header_int h0 dir "num_features" in
  let empty =
    { Orion_data.Sparse_features.label = 0.0; features = [||]; values = [||] }
  in
  let arr =
    Dist_array.create_sparse ~name:"samples" ~dims:[| num_samples |]
      ~default:empty
  in
  let nnz = ref 0 in
  List.iteri
    (fun i _ ->
      let path = Shard.shard_path ~dir i in
      Shard.iter path ~f:(fun b ->
          let s = Gen.decode_sample ~path b in
          nnz := !nnz + Array.length s.Gen.fs_features;
          Dist_array.set arr [| s.Gen.fs_index |]
            {
              Orion_data.Sparse_features.label = s.Gen.fs_label;
              features = s.Gen.fs_features;
              values = s.Gen.fs_values;
            }))
    headers;
  let stored = max 1 (Dist_array.count arr) in
  {
    Orion_data.Sparse_features.samples = arr;
    num_samples;
    num_features;
    avg_nnz = float_of_int !nnz /. float_of_int stored;
  }

let corpus dir =
  let headers = Shard.dataset_headers dir in
  let h0 = check_schema dir "corpus-v1" headers in
  let num_docs = header_int h0 dir "num_docs" in
  let vocab_size = header_int h0 dir "vocab_size" in
  let num_topics = header_int h0 dir "num_topics" in
  let arr =
    Dist_array.create_sparse ~name:"tokens" ~dims:[| num_docs; vocab_size |]
      ~default:0.0
  in
  let tokens = ref 0 in
  iter_fixed16 ~what:"token" dir headers (fun doc word count ->
      tokens := !tokens + int_of_float count;
      Dist_array.set_lin arr (Dist_array.linearize2 arr doc word) count);
  {
    Orion_data.Corpus.tokens = arr;
    num_docs;
    vocab_size;
    num_tokens = !tokens;
    num_topics_truth = num_topics;
  }
