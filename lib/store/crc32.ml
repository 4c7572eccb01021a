(* CRC-32 (IEEE 802.3), reflected, init/xorout 0xFFFFFFFF — bit-identical
   to zlib's crc32().  Slicing-by-4 over native ints: table [k] holds
   the remainder of a byte followed by [k] zero bytes, so four bytes
   fold in with four lookups.  The tables are built once, on first
   use. *)

let tables =
  lazy
    (let t = Array.make (4 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 3 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

type t = { mutable crc : int }

let create () = { crc = 0xFFFFFFFF }

let update t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: out of range";
  let tbl = Lazy.force tables in
  let c = ref t.crc in
  let i = ref pos in
  let stop4 = pos + len - 4 in
  while !i <= stop4 do
    let word =
      Bytes.get_uint16_le b !i lor (Bytes.get_uint16_le b (!i + 2) lsl 16)
    in
    let x = !c lxor word in
    c :=
      Array.unsafe_get tbl (768 + (x land 0xFF))
      lxor Array.unsafe_get tbl (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get tbl (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get tbl (x lsr 24);
    i := !i + 4
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := Array.unsafe_get tbl ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  t.crc <- !c

let update_string t s =
  update t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let value t = Int32.of_int (t.crc lxor 0xFFFFFFFF)

let digest b =
  let t = create () in
  update t b ~pos:0 ~len:(Bytes.length b);
  value t
