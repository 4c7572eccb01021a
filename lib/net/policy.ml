(** Pluggable communication policies: see [policy.mli] for the model.

    Layout of the packed codecs (all integers are unsigned LEB128
    varints, float values are 8 little-endian bytes of IEEE-754 bits,
    so round trips are bitwise):

    {v
    triples  := narrays group*
    group    := namelen name n keymode keys valmode values version*
    part     := namelen name ndims dim* default sparse keymode nentries
                keys valmode values
    keys     := k0 delta*                     (keymode 0: sparse)
              | nruns (gap len)*              (keymode 1: dense runs)
    values   := bits*                         (valmode 0: raw)
              | nruns (count bits)*           (valmode 1: RLE)
    v}

    Keys are ascending linearized (row-major) element indices; both
    ends rebuild identical arrays from the same registry, so indices
    agree across processes. *)

module Dist_array = Orion_dsm.Dist_array

type spec = Auto | Full | Delta | Topk of int | Budget of float

let spec_to_string = function
  | Auto -> "auto"
  | Full -> "full"
  | Delta -> "delta"
  | Topk k -> Printf.sprintf "topk:%d" k
  | Budget b -> Printf.sprintf "budget:%.0f" b

let usage = "expected full | delta | topk:K | budget:BYTES | auto"

let spec_of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  match s with
  | "" | "auto" -> Ok Auto
  | "full" -> Ok Full
  | "delta" -> Ok Delta
  | _ -> (
      match String.index_opt s ':' with
      | Some i -> (
          let head = String.sub s 0 i
          and arg = String.sub s (i + 1) (String.length s - i - 1) in
          match head with
          | "topk" -> (
              match int_of_string_opt arg with
              | Some k when k > 0 -> Ok (Topk k)
              | _ -> Error (Printf.sprintf "bad top-k count %S: %s" arg usage))
          | "budget" -> (
              match float_of_string_opt arg with
              | Some b when b > 0.0 -> Ok (Budget b)
              | _ ->
                  Error (Printf.sprintf "bad byte budget %S: %s" arg usage))
          | _ -> Error (Printf.sprintf "unknown comms policy %S: %s" s usage))
      | None -> Error (Printf.sprintf "unknown comms policy %S: %s" s usage))

let spec_of_string_exn s =
  match spec_of_string s with Ok p -> p | Error e -> invalid_arg e

(* ------------------------------------------------------------------ *)
(* Varints and float bits                                              *)
(* ------------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Policy: negative varint";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max 0 n) 1

let get_varint bytes pos =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length bytes then failwith "Policy: truncated varint";
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !n

let put_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let get_float bytes pos =
  if !pos + 8 > Bytes.length bytes then failwith "Policy: truncated float";
  let v = Int64.float_of_bits (Bytes.get_int64_le bytes !pos) in
  pos := !pos + 8;
  v

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string bytes pos =
  let n = get_varint bytes pos in
  if !pos + n > Bytes.length bytes then failwith "Policy: truncated string";
  let s = Bytes.sub_string bytes !pos n in
  pos := !pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Key and value sections                                              *)
(* ------------------------------------------------------------------ *)

(* [keys] ascending and distinct. *)
let put_keys buf ~(mode : [ `Sparse | `Dense ]) (keys : int array) =
  match mode with
  | `Sparse ->
      Buffer.add_char buf '\000';
      Array.iteri
        (fun i k -> put_varint buf (if i = 0 then k else k - keys.(i - 1) - 1))
        keys
  | `Dense ->
      (* runs of consecutive keys: (gap from previous run's end, length) *)
      Buffer.add_char buf '\001';
      let n = Array.length keys in
      let nruns = ref 0 in
      Array.iteri
        (fun i k -> if i = 0 || k <> keys.(i - 1) + 1 then incr nruns)
        keys;
      put_varint buf !nruns;
      let prev_end = ref (-1) and i = ref 0 in
      while !i < n do
        let j = ref (!i + 1) in
        while !j < n && keys.(!j) = keys.(!j - 1) + 1 do
          incr j
        done;
        put_varint buf (keys.(!i) - !prev_end - 1);
        put_varint buf (!j - !i);
        prev_end := keys.(!j - 1);
        i := !j
      done

let get_keys bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      let keys = Array.make n 0 in
      let prev = ref (-1) in
      for i = 0 to n - 1 do
        let d = get_varint bytes pos in
        keys.(i) <- (if i = 0 then d else !prev + 1 + d);
        prev := keys.(i)
      done;
      keys
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let keys = Array.make n 0 in
      let i = ref 0 and prev_end = ref (-1) in
      for _ = 1 to nruns do
        let gap = get_varint bytes pos in
        let len = get_varint bytes pos in
        let start = !prev_end + 1 + gap in
        for j = 0 to len - 1 do
          if !i >= n then failwith "Policy: key runs overflow count";
          keys.(!i) <- start + j;
          incr i
        done;
        prev_end := start + len - 1
      done;
      if !i <> n then failwith "Policy: key runs underflow count";
      keys
  | _ -> failwith "Policy: bad key mode"

(* Raw or RLE, whichever is smaller for these values. *)
let put_values buf (values : float array) =
  let n = Array.length values in
  let same i =
    Int64.equal
      (Int64.bits_of_float values.(i))
      (Int64.bits_of_float values.(i - 1))
  in
  (* the end of the run starting at [i] *)
  let run_end i =
    let j = ref (i + 1) in
    while !j < n && same !j do
      incr j
    done;
    !j
  in
  let nruns = ref 0 and rle_size = ref 0 and i = ref 0 in
  while !i < n do
    let j = run_end !i in
    incr nruns;
    rle_size := !rle_size + varint_len (j - !i) + 8;
    i := j
  done;
  if varint_len !nruns + !rle_size < n * 8 then begin
    Buffer.add_char buf '\001';
    put_varint buf !nruns;
    let i = ref 0 in
    while !i < n do
      let j = run_end !i in
      put_varint buf (j - !i);
      put_float buf values.(!i);
      i := j
    done
  end
  else begin
    Buffer.add_char buf '\000';
    Array.iter (put_float buf) values
  end

let get_values bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      Array.init n (fun _ -> get_float bytes pos)
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let values = Array.make n 0.0 in
      let i = ref 0 in
      for _ = 1 to nruns do
        let c = get_varint bytes pos in
        let v = get_float bytes pos in
        for _ = 1 to c do
          if !i >= n then failwith "Policy: value runs overflow count";
          values.(!i) <- v;
          incr i
        done
      done;
      if !i <> n then failwith "Policy: value runs underflow count";
      values
  | _ -> failwith "Policy: bad value mode"

(* ------------------------------------------------------------------ *)
(* Partition codec                                                     *)
(* ------------------------------------------------------------------ *)

let encode_part ~mode (p : Wire.part) : bytes =
  let buf = Buffer.create 256 in
  put_string buf p.Dist_array.pt_array;
  put_varint buf (Array.length p.Dist_array.pt_dims);
  Array.iter (put_varint buf) p.Dist_array.pt_dims;
  put_float buf p.Dist_array.pt_default;
  Buffer.add_char buf (if p.Dist_array.pt_sparse then '\001' else '\000');
  let n = Array.length p.Dist_array.pt_entries in
  put_varint buf n;
  if n > 0 then begin
    put_keys buf ~mode (Array.map fst p.Dist_array.pt_entries);
    put_values buf (Array.map snd p.Dist_array.pt_entries)
  end;
  Buffer.to_bytes buf

let decode_part (b : bytes) : Wire.part =
  let pos = ref 0 in
  let name = get_string b pos in
  let ndims = get_varint b pos in
  let dims = Array.init ndims (fun _ -> get_varint b pos) in
  let default = get_float b pos in
  let sparse = Char.code (Bytes.get b !pos) = 1 in
  incr pos;
  let n = get_varint b pos in
  let entries =
    if n = 0 then [||]
    else
      let keys = get_keys b pos ~n in
      let values = get_values b pos ~n in
      Array.init n (fun i -> (keys.(i), values.(i)))
  in
  {
    Dist_array.pt_array = name;
    pt_dims = dims;
    pt_default = default;
    pt_sparse = sparse;
    pt_entries = entries;
  }

let part_mode (p : Wire.part) : [ `Sparse | `Dense ] =
  let cells = Array.fold_left (fun a d -> a * d) 1 p.Dist_array.pt_dims in
  let cells = if Array.length p.Dist_array.pt_dims = 0 then 0 else cells in
  if
    cells > 0
    && float_of_int (Array.length p.Dist_array.pt_entries)
       /. float_of_int cells
       >= 0.5
  then `Dense
  else `Sparse

let encode_parts spec (parts : Wire.part list) : Wire.part_payload list =
  List.map
    (fun p ->
      if spec = Full then Wire.Part p
      else Wire.Packed_part (encode_part ~mode:(part_mode p) p))
    parts

let payload_bytes = function
  | Wire.Part p -> float_of_int (Dist_array.partition_size_bytes p)
  | Wire.Packed_part b -> float_of_int (Bytes.length b)

let prepare_parts spec (parts : Wire.part list) :
    Wire.part_payload list * (string * float * float) list =
  let payloads = encode_parts spec parts in
  ( payloads,
    List.map2
      (fun (p : Wire.part) payload ->
        ( p.Dist_array.pt_array,
          payload_bytes payload,
          float_of_int (Dist_array.partition_size_bytes p) ))
      parts payloads )

let decode_parts (payloads : Wire.part_payload list) : Wire.part list =
  List.map
    (function Wire.Part p -> p | Wire.Packed_part b -> decode_part b)
    payloads

(* ------------------------------------------------------------------ *)
(* Dirty-element stamps                                                *)
(* ------------------------------------------------------------------ *)

(* One managed DistArray's stamps, indexed by slot: the linearized key
   itself for dense storage; for sparse storage one slot per stored key
   (ascending) plus one per key inserted later, so stamps grow with the
   stored elements rather than with the key space. *)
type table = {
  t_arr : float Dist_array.t;
  t_slots : (int, int) Hashtbl.t option;  (** sparse: lin -> slot *)
  mutable t_lins : int array;  (** sparse: slot -> lin *)
  mutable t_ordered : bool;  (** ascending slots have ascending keys *)
  mutable t_ver : int array;
      (** last writer, [pass * blocks + natural-order position]; -1
          while the element holds its initial value *)
  mutable t_seen : int array;
      (** the local sequence number at which this worker learned the
          element's current value *)
  mutable t_dirty : int array;  (** every slot with [seen > floor], once *)
  mutable t_ndirty : int;
  mutable t_mode : [ `Sparse | `Dense ];  (** key encoding, per pass *)
}

type stamps = {
  s_spec : spec;
  s_rank : int;
  s_owners : int array;  (** natural-order position -> owning rank *)
  s_tables : table array;
  s_names : (string, int) Hashtbl.t;
  s_cursor : int array;
      (** per peer: the sequence number of the last payload prepared
          for it, which offered every element seen up to then ([max_int]
          for this rank itself) *)
  mutable s_seq : int;
  mutable s_floor : int;  (** the smallest peer cursor *)
  mutable s_ver : int;  (** the version local writes are stamped with *)
  s_shipped : (int * int, float) Hashtbl.t array;
      (** lossy policies, per peer: last value shipped per (table,
          slot) — the ranking baseline *)
  s_residuals : (int * int, unit) Hashtbl.t array;
      (** lossy policies, per peer: suppressed (table, slot)s, offered
          again at their current value with the next payload *)
  mutable s_budget_left : float;  (** per pass, [Budget] only *)
}

let stamps spec ~rank ~peers ~owners arrays =
  let table arr =
    let sparse = Dist_array.is_sparse arr in
    let lins = if sparse then Dist_array.sorted_keys arr else [||] in
    let slots = Hashtbl.create (Array.length lins) in
    Array.iteri (fun s lin -> Hashtbl.replace slots lin s) lins;
    let n =
      if sparse then max 16 (Array.length lins)
      else Array.fold_left ( * ) 1 (Dist_array.dims arr)
    in
    {
      t_arr = arr;
      t_slots = (if sparse then Some slots else None);
      t_lins = Array.append lins (Array.make (n - Array.length lins) 0);
      t_ordered = true;
      t_ver = Array.make n (-1);
      t_seen = Array.make n 0;
      t_dirty = Array.make 64 0;
      t_ndirty = 0;
      t_mode = `Sparse;
    }
  in
  let tables = Array.of_list (List.map table arrays) in
  let names = Hashtbl.create 8 in
  Array.iteri
    (fun i tb -> Hashtbl.replace names (Dist_array.name tb.t_arr) i)
    tables;
  {
    s_spec = spec;
    s_rank = rank;
    s_owners = owners;
    s_tables = tables;
    s_names = names;
    s_cursor = Array.init peers (fun q -> if q = rank then max_int else 0);
    s_seq = 1;
    s_floor = 0;
    s_ver = 0;
    s_shipped = Array.init peers (fun _ -> Hashtbl.create 64);
    s_residuals = Array.init peers (fun _ -> Hashtbl.create 16);
    s_budget_left = (match spec with Budget b -> b | _ -> infinity);
  }

let owner st ver = st.s_owners.(ver mod Array.length st.s_owners)
let lin_of tb s = match tb.t_slots with None -> s | Some _ -> tb.t_lins.(s)

let nslots tb =
  match tb.t_slots with
  | None -> Array.length tb.t_ver
  | Some h -> Hashtbl.length h

(* Slots in ascending key order. *)
let sort_slots tb (slots : int array) =
  if not tb.t_ordered then
    Array.stable_sort (fun a b -> Int.compare (lin_of tb a) (lin_of tb b)) slots
  else Array.stable_sort Int.compare slots

let slot tb lin =
  match tb.t_slots with
  | None -> lin
  | Some h -> (
      match Hashtbl.find h lin with
      | s -> s
      | exception Not_found ->
          let s = Hashtbl.length h in
          if s = Array.length tb.t_ver then begin
            let grow a fill =
              let b = Array.make (2 * s) fill in
              Array.blit a 0 b 0 s;
              b
            in
            tb.t_lins <- grow tb.t_lins 0;
            tb.t_ver <- grow tb.t_ver (-1);
            tb.t_seen <- grow tb.t_seen 0
          end;
          Hashtbl.replace h lin s;
          tb.t_lins.(s) <- lin;
          if s > 0 && tb.t_lins.(s - 1) > lin then tb.t_ordered <- false;
          s)

(* A slot is on the dirty list iff [seen > floor]: push it when it
   crosses the floor, then stamp it with the current sequence number. *)
let touch st tb s =
  if tb.t_seen.(s) <= st.s_floor then begin
    if tb.t_ndirty = Array.length tb.t_dirty then begin
      let d = Array.make (2 * tb.t_ndirty) 0 in
      Array.blit tb.t_dirty 0 d 0 tb.t_ndirty;
      tb.t_dirty <- d
    end;
    tb.t_dirty.(tb.t_ndirty) <- s;
    tb.t_ndirty <- tb.t_ndirty + 1
  end;
  tb.t_seen.(s) <- st.s_seq

let externs st =
  Array.to_list st.s_tables
  |> List.map (fun tb ->
         ( Dist_array.name tb.t_arr,
           Dist_array.to_stamped_extern
             ~stamp:(fun lin ->
               let s = slot tb lin in
               tb.t_ver.(s) <- st.s_ver;
               touch st tb s)
             tb.t_arr ))

let begin_block st ~pass ~pos =
  st.s_ver <- (pass * Array.length st.s_owners) + pos

(* Drop the slots every peer has been offered; eager, so a slot that is
   touched again after the floor passed it is pushed only once. *)
let raise_floor st floor =
  if floor > st.s_floor then begin
    st.s_floor <- floor;
    Array.iter
      (fun tb ->
        let k = ref 0 in
        for i = 0 to tb.t_ndirty - 1 do
          let s = tb.t_dirty.(i) in
          if tb.t_seen.(s) > floor then begin
            tb.t_dirty.(!k) <- s;
            incr k
          end
        done;
        tb.t_ndirty <- !k)
      st.s_tables
  end

let settle st =
  Array.iteri
    (fun q _ -> if q <> st.s_rank then st.s_cursor.(q) <- st.s_seq)
    st.s_cursor;
  st.s_seq <- st.s_seq + 1;
  raise_floor st (st.s_seq - 1)

let note_pass st =
  (match st.s_spec with Budget b -> st.s_budget_left <- b | _ -> ());
  Array.iter
    (fun tb ->
      tb.t_mode <-
        (match st.s_spec with
        | Full | Delta -> `Sparse
        | Auto | Topk _ | Budget _ ->
            (* run-length keys pay off once most cells are populated;
               index/value wins below that *)
            if (Dist_array.stats tb.t_arr).Dist_array.st_density >= 0.5 then
              `Dense
            else `Sparse))
    st.s_tables

let mode_label = function `Sparse -> "sparse" | `Dense -> "dense"

let decisions st =
  let policy =
    match st.s_spec with
    | Full -> "full"
    | Auto | Delta -> "delta"
    | Topk _ -> "topk"
    | Budget _ -> "budget"
  in
  Array.to_list st.s_tables
  |> List.map (fun tb ->
         ( Dist_array.name tb.t_arr,
           if st.s_spec = Full then policy
           else policy ^ "+" ^ mode_label tb.t_mode ))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Stamp payloads: selection, encoding, last-writer-wins application   *)
(* ------------------------------------------------------------------ *)

(* The raw cost of one triple: an 8-byte key, value and version. *)
let triple_bytes = 24

(* Lossy policies: rank this payload's candidates plus the residuals
   held for [peer] by change since the value last shipped to it, keep
   the top K (or what fits the pass budget) and hold the rest back.  A
   pass sync keeps everything. *)
let select st ~peer ~sync fresh =
  let residuals = st.s_residuals.(peer) and shipped = st.s_shipped.(peer) in
  let cands = Hashtbl.create 64 in
  Array.iteri
    (fun ti -> Array.iter (fun s -> Hashtbl.replace cands (ti, s) ()))
    fresh;
  Hashtbl.iter
    (fun ((ti, s) as k) () ->
      if owner st st.s_tables.(ti).t_ver.(s) <> peer then
        Hashtbl.replace cands k ())
    residuals;
  Hashtbl.reset residuals;
  let value (ti, s) =
    let tb = st.s_tables.(ti) in
    Dist_array.get_lin tb.t_arr (lin_of tb s)
  in
  let all = Hashtbl.fold (fun k () acc -> k :: acc) cands [] in
  let kept =
    if sync then all
    else
      let ranked =
        List.map
          (fun ((ti, s) as k) ->
            let v = value k in
            let mag =
              match Hashtbl.find_opt shipped k with
              | Some prev -> Float.abs (v -. prev)
              | None -> Float.abs v
            in
            ((-.mag, ti, lin_of st.s_tables.(ti) s), k))
          all
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      List.filteri
        (fun i ((ti, s) as k) ->
          let keep =
            match st.s_spec with
            | Topk n -> i < n
            | Budget _ ->
                let tb = st.s_tables.(ti) in
                let cost =
                  float_of_int
                    (varint_len (lin_of tb s) + varint_len tb.t_ver.(s) + 8)
                in
                cost <= st.s_budget_left
                && begin
                     st.s_budget_left <- st.s_budget_left -. cost;
                     true
                   end
            | Auto | Full | Delta -> true
          in
          if not keep then Hashtbl.replace residuals k ();
          keep)
        ranked
  in
  List.iter (fun k -> Hashtbl.replace shipped k (value k)) kept;
  Array.mapi
    (fun ti tb ->
      let a =
        Array.of_list
          (List.filter_map (fun (t, s) -> if t = ti then Some s else None) kept)
      in
      sort_slots tb a;
      a)
    st.s_tables

let triples_of tb slots : Wire.triples =
  let keys = Array.map (lin_of tb) slots in
  {
    Wire.tr_array = Dist_array.name tb.t_arr;
    tr_keys = keys;
    tr_values = Array.map (Dist_array.get_lin tb.t_arr) keys;
    tr_versions = Array.map (fun s -> tb.t_ver.(s)) slots;
  }

let encode_triples st (trs : Wire.triples list) =
  let buf = Buffer.create 512 in
  put_varint buf (List.length trs);
  let sizes =
    List.map
      (fun (tr : Wire.triples) ->
        let before = Buffer.length buf in
        put_string buf tr.tr_array;
        put_varint buf (Array.length tr.tr_keys);
        put_keys buf
          ~mode:st.s_tables.(Hashtbl.find st.s_names tr.tr_array).t_mode
          tr.tr_keys;
        put_values buf tr.tr_values;
        Array.iter (put_varint buf) tr.tr_versions;
        float_of_int (Buffer.length buf - before))
      trs
  in
  (Buffer.to_bytes buf, sizes)

let prepare st ~peer ~sync =
  let cursor = st.s_cursor.(peer) in
  let offered tb s = tb.t_seen.(s) > cursor && owner st tb.t_ver.(s) <> peer in
  (* ascending slots: a scan of every slot when the dirty list is a
     large share of them, else the dirty list, sorted *)
  let fresh =
    Array.map
      (fun tb ->
        let n = nslots tb and l = ref [] in
        let scan = tb.t_ordered && tb.t_ndirty * 8 >= n in
        for i = (if scan then n else tb.t_ndirty) - 1 downto 0 do
          let s = if scan then i else tb.t_dirty.(i) in
          if offered tb s then l := s :: !l
        done;
        let a = Array.of_list !l in
        if not scan then sort_slots tb a;
        a)
      st.s_tables
  in
  let kept =
    match st.s_spec with
    | Auto | Full | Delta -> fresh
    | Topk _ | Budget _ -> select st ~peer ~sync fresh
  in
  let trs =
    List.filter_map
      (fun (tb, slots) ->
        if Array.length slots = 0 then None else Some (triples_of tb slots))
      (List.combine (Array.to_list st.s_tables) (Array.to_list kept))
  in
  let raw (tr : Wire.triples) =
    float_of_int (triple_bytes * Array.length tr.tr_keys)
  in
  let payload, actual =
    match st.s_spec with
    | Full -> (Wire.Triples trs, List.map raw trs)
    | _ ->
        let b, sizes = encode_triples st trs in
        (Wire.Packed_triples b, sizes)
  in
  (* everything seen so far has now been offered to [peer] *)
  st.s_cursor.(peer) <- st.s_seq;
  st.s_seq <- st.s_seq + 1;
  raise_floor st (Array.fold_left min max_int st.s_cursor);
  ( payload,
    List.map2
      (fun (tr : Wire.triples) a -> (tr.tr_array, a, raw tr))
      trs actual )

let decode : Wire.payload -> Wire.triples list = function
  | Wire.Triples trs -> trs
  | Wire.Packed_triples b ->
      let pos = ref 0 in
      (* [List.init] and [Array.init] evaluate left to right *)
      List.init (get_varint b pos) (fun _ ->
          let tr_array = get_string b pos in
          let n = get_varint b pos in
          let tr_keys = get_keys b pos ~n in
          let tr_values = get_values b pos ~n in
          let tr_versions = Array.init n (fun _ -> get_varint b pos) in
          { Wire.tr_array; tr_keys; tr_values; tr_versions })

let apply st payload =
  List.iter
    (fun (tr : Wire.triples) ->
      let tb =
        try st.s_tables.(Hashtbl.find st.s_names tr.tr_array)
        with Not_found ->
          failwith ("Policy: payload for unknown array " ^ tr.tr_array)
      in
      (* last-writer-wins: all writers of one element are
         happens-before-ordered and natural order linearizes
         happens-before, so the larger version is the later write *)
      Array.iteri
        (fun i lin ->
          let s = slot tb lin and ver = tr.tr_versions.(i) in
          if ver > tb.t_ver.(s) then begin
            Dist_array.set_lin tb.t_arr lin tr.tr_values.(i);
            tb.t_ver.(s) <- ver;
            touch st tb s
          end)
        tr.tr_keys)
    (decode payload)

let owned_parts ?pass st : Wire.part list =
  let blocks = Array.length st.s_owners in
  Array.to_list st.s_tables
  |> List.filter_map (fun tb ->
         let entries = ref [] in
         for s = nslots tb - 1 downto 0 do
           let v = tb.t_ver.(s) in
           if
             v >= 0
             && owner st v = st.s_rank
             && match pass with None -> true | Some p -> v / blocks = p
           then
             let lin = lin_of tb s in
             entries := (lin, Dist_array.get_lin tb.t_arr lin) :: !entries
         done;
         if !entries = [] then None
         else
           let e = Array.of_list !entries in
           if not tb.t_ordered then
             Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) e;
           let a = tb.t_arr in
           Some
             {
               Dist_array.pt_array = Dist_array.name a;
               pt_dims = Dist_array.dims a;
               pt_default = a.Dist_array.default;
               pt_sparse = Dist_array.is_sparse a;
               pt_entries = e;
             })
