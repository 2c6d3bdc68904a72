open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Concept = Bionav_mesh.Concept
module Tree_number = Bionav_mesh.Tree_number

let magic = "BIONAVDB1"

module Wire = struct
  (* --- primitive writers -------------------------------------------- *)

  let write_i32 buf v =
    if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
      invalid_arg "Codec: value exceeds 32 bits";
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b

  let write_i64 buf v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Buffer.add_bytes buf b

  let write_string buf s =
    write_i32 buf (String.length s);
    Buffer.add_string buf s

  (* LEB128 unsigned: 7 value bits per byte, high bit = continuation.
     Sorted posting lists delta-encode into mostly-1-byte gaps, which is
     what makes the segment store's blocks compact. *)
  let write_varint buf v =
    if v < 0 then invalid_arg "Codec: negative varint";
    let rec go v =
      if v < 0x80 then Buffer.add_char buf (Char.chr v)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v

  (* --- primitive readers --------------------------------------------- *)

  type cursor = { data : string; mutable pos : int }

  let cursor ?(pos = 0) data = { data; pos }
  let pos cur = cur.pos
  let remaining cur = String.length cur.data - cur.pos

  let fail msg = invalid_arg ("Codec.decode: " ^ msg)

  let read_i32 cur =
    if cur.pos + 4 > String.length cur.data then fail "truncated integer";
    let v = Int32.to_int (String.get_int32_le cur.data cur.pos) in
    cur.pos <- cur.pos + 4;
    v

  let read_i64 cur =
    if cur.pos + 8 > String.length cur.data then fail "truncated 64-bit integer";
    let v = String.get_int64_le cur.data cur.pos in
    cur.pos <- cur.pos + 8;
    v

  let read_varint cur =
    let len = String.length cur.data in
    let rec go shift acc =
      if shift > 62 then fail "varint too long";
      if cur.pos >= len then fail "truncated varint";
      let b = Char.code cur.data.[cur.pos] in
      cur.pos <- cur.pos + 1;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if acc < 0 then fail "varint overflows 63 bits";
      if b < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0

  let read_string cur =
    let len = read_i32 cur in
    if len < 0 || cur.pos + len > String.length cur.data then fail "truncated string";
    let s = String.sub cur.data cur.pos len in
    cur.pos <- cur.pos + len;
    s

  (* FNV-1a over the native 63-bit int space, folded to int64 for the
     wire: cheap, dependency-free, and plenty for corruption detection
     (not cryptographic). *)
  let fnv1a64 ?(init = 0xcbf29ce484222325L) s =
    let prime = 0x100000001b3L in
    (* A plain loop keeps [h] unboxed: no allocation per byte. *)
    let h = ref init in
    for i = 0 to String.length s - 1 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
    done;
    !h
end

open Wire

(* --- database layout -------------------------------------------------- *)

let encode db =
  let h = Database.hierarchy db in
  let n = Hierarchy.size h in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf magic;
  write_i32 buf n;
  for i = 0 to n - 1 do
    let c = Hierarchy.concept h i in
    write_i32 buf (Hierarchy.parent h i);
    write_string buf (Tree_number.to_string (Concept.tree_number c));
    write_string buf (Concept.label c)
  done;
  write_i32 buf (Database.n_citations db);
  (* Database-level accessors, not [Database.assoc]: an external
     (segment-store) backend streams each concept's postings through
     here one at a time, so exporting never materializes the whole
     association table. *)
  for concept = 0 to n - 1 do
    write_i32 buf (Database.total_count db concept);
    Database.iter_citations_of_concept db concept (fun cit -> write_i32 buf cit)
  done;
  Buffer.contents buf

let decode data =
  if String.length data < String.length magic || String.sub data 0 (String.length magic) <> magic
  then fail "bad magic";
  let cur = { data; pos = String.length magic } in
  let n = read_i32 cur in
  if n <= 0 then fail "non-positive concept count";
  (* Every count is checked against the bytes actually left before any
     allocation sized by it: a corrupted length high byte must fail as
     "truncated", not attempt a multi-gigabyte Array.make. Each concept
     occupies at least 12 bytes (parent + two string lengths). *)
  if n > remaining cur / 12 then fail "concept count exceeds input";
  let parent = Array.make n (-1) in
  let concepts =
    Array.init n (fun i ->
        let p = read_i32 cur in
        parent.(i) <- p;
        let tn = Tree_number.of_string (read_string cur) in
        let label = read_string cur in
        Concept.make ~id:i ~label ~tree_number:tn)
  in
  let hierarchy = Hierarchy.build concepts ~parent in
  let n_citations = read_i32 cur in
  if n_citations < 0 then fail "negative citation count";
  let postings =
    Array.init n (fun _ ->
        let k = read_i32 cur in
        if k < 0 || k > remaining cur / 4 then fail "posting length exceeds input";
        let arr = Array.init k (fun _ -> read_i32 cur) in
        Intset.of_array arr)
  in
  if cur.pos <> String.length data then fail "trailing bytes";
  let assoc = Assoc_table.of_postings ~n_citations postings in
  Database.make ~hierarchy ~assoc

let save db path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode db))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))
