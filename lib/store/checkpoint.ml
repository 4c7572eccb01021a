(* Checkpoint files: a small CRC-framed Marshal payload.  The arrays
   inside are already bytes (partition codec), so Marshal here only
   frames strings/ints — float bits never pass through a decimal
   printer. *)

module Dist_array = Orion_dsm.Dist_array

let version = 1
let extension = ".orck"
let magic = "ORCK"

exception Corrupt of { path : string; reason : string }

let corrupt path fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { path; reason })) fmt

type snapshot = {
  ck_app : string;
  ck_scale : float;
  ck_pass : int;
  ck_total_passes : int;
  ck_rng : int64;
  ck_arrays : (string * bytes) list;
}

let snapshot ~app ~scale ~pass ~total_passes ~rng arrays =
  {
    ck_app = app;
    ck_scale = scale;
    ck_pass = pass;
    ck_total_passes = total_passes;
    ck_rng = rng;
    ck_arrays =
      List.map
        (fun (name, arr) ->
          (name, Dist_array.partition_to_bytes (Dist_array.to_partition arr)))
        arrays;
  }

let path_of_pass ~dir pass =
  Filename.concat dir (Printf.sprintf "pass-%04d%s" pass extension)

let save ~dir s =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = path_of_pass ~dir s.ck_pass in
  let payload = Marshal.to_bytes s [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      let b = Buffer.create 8 in
      Buffer.add_int32_le b (Int32.of_int version);
      Buffer.add_int32_le b (Crc32.digest payload);
      output_string oc (Buffer.contents b);
      output_bytes oc payload);
  Sys.rename tmp path;
  path

let load path =
  let ic = try open_in_bin path with Sys_error e -> corrupt path "%s" e in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 12 then corrupt path "too short to be a checkpoint";
      let head = Bytes.create 12 in
      (try really_input ic head 0 12
       with End_of_file -> corrupt path "truncated frame");
      if Bytes.sub_string head 0 4 <> magic then
        corrupt path "bad magic (not a checkpoint file)";
      let v = Int32.to_int (Bytes.get_int32_le head 4) in
      if v <> version then
        corrupt path "unsupported checkpoint version %d (expected %d)" v version;
      let want_crc = Bytes.get_int32_le head 8 in
      let payload = Bytes.create (len - 12) in
      (try really_input ic payload 0 (len - 12)
       with End_of_file -> corrupt path "truncated payload");
      if Crc32.digest payload <> want_crc then
        corrupt path "CRC mismatch (damaged checkpoint)";
      (Marshal.from_bytes payload 0 : snapshot))

let latest dir =
  if not (Sys.file_exists dir) then None
  else
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f extension)
      |> List.sort compare
    in
    match List.rev files with
    | [] -> None
    | f :: _ ->
        let path = Filename.concat dir f in
        Some (path, load path)

let mismatch s ~app ~scale =
  if s.ck_app = app && s.ck_scale = scale then None
  else
    Some
      (Printf.sprintf "was taken from app %s at scale %g, not app %s at scale %g"
         s.ck_app s.ck_scale app scale)

let restore s arrays =
  List.iter
    (fun (name, bytes) ->
      match List.assoc_opt name arrays with
      | Some arr ->
          Dist_array.apply_partition arr (Dist_array.partition_of_bytes bytes)
      | None ->
          corrupt ("checkpoint:" ^ s.ck_app)
            "snapshot array %S has no matching array in the instance" name)
    s.ck_arrays
