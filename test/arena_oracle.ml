(* Reference docset arena: single-domain interning and set algebra as
   Docset_arena computed them before its kernels merged in place. Every
   operation copies its operands to fresh sorted arrays, merges into a
   fresh [na + nb] array and trims it, then interns. Ids, memo entries and
   stats are the contract; test_docset holds the production arena to them
   operation by operation. Test-only. *)

type repr = Sparse of int array | Dense of { base : int; words : int array; card : int }

type t = {
  mutable reprs : repr array;
  mutable n : int;
  intern_tbl : (int, int list ref) Hashtbl.t;
  op_memo : (int * int * int, int) Hashtbl.t;
  mutable bytes : int;
  mutable dense_count : int;
  mutable sparse_count : int;
  mutable intern_requests : int;
  mutable dedup_hits : int;
  mutable memo_hits : int;
}

let word_bits = 32

let fingerprint a =
  Array.fold_left (fun h x -> (h lxor x) * 0x100000001b3 land max_int) 0x1505 a

let create () =
  let t =
    {
      reprs = Array.make 16 (Sparse [||]);
      n = 1;
      intern_tbl = Hashtbl.create 64;
      op_memo = Hashtbl.create 128;
      bytes = 0;
      dense_count = 0;
      sparse_count = 1;
      intern_requests = 0;
      dedup_hits = 0;
      memo_hits = 0;
    }
  in
  Hashtbl.replace t.intern_tbl (fingerprint [||]) (ref [ 0 ]);
  t

let to_array t id =
  match t.reprs.(id) with
  | Sparse a -> Array.copy a
  | Dense { base; words; card } ->
      let out = Array.make card 0 and k = ref 0 in
      for i = 0 to (word_bits * Array.length words) - 1 do
        if words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0 then begin
          out.(!k) <- base + i;
          incr k
        end
      done;
      out

let pack a =
  let n = Array.length a in
  if n = 0 || a.(0) < 0 then Sparse a
  else begin
    let base = a.(0) / word_bits * word_bits in
    let n_words = ((a.(n - 1) - base) / word_bits) + 1 in
    if n_words + 4 >= n then Sparse a
    else begin
      let words = Array.make n_words 0 in
      Array.iter
        (fun x ->
          let idx = x - base in
          words.(idx / word_bits) <- words.(idx / word_bits) lor (1 lsl (idx mod word_bits)))
        a;
      Dense { base; words; card = n }
    end
  end

let intern_unchecked t a =
  let fp = fingerprint a in
  t.intern_requests <- t.intern_requests + 1;
  let bucket = Hashtbl.find_opt t.intern_tbl fp in
  match Option.bind bucket (fun b -> List.find_opt (fun id -> to_array t id = a) !b) with
  | Some id ->
      t.dedup_hits <- t.dedup_hits + 1;
      id
  | None ->
      let r = pack a in
      let id = t.n in
      if id = Array.length t.reprs then begin
        let reprs = Array.make (2 * id) (Sparse [||]) in
        Array.blit t.reprs 0 reprs 0 id;
        t.reprs <- reprs
      end;
      t.reprs.(id) <- r;
      t.n <- id + 1;
      (match bucket with
      | Some b -> b := id :: !b
      | None -> Hashtbl.add t.intern_tbl fp (ref [ id ]));
      (match r with
      | Sparse a ->
          t.bytes <- t.bytes + (8 * Array.length a) + 24;
          t.sparse_count <- t.sparse_count + 1
      | Dense d ->
          t.bytes <- t.bytes + (8 * Array.length d.words) + 40;
          t.dense_count <- t.dense_count + 1);
      id

let intern t a = intern_unchecked t (Array.copy a)

(* The copying rebase: materialize the foreign set, intern the copy. *)
let import t ~src id = if src == t then id else intern_unchecked t (to_array src id)

let merge ~left ~both ~right a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let push x =
    out.(!k) <- x;
    incr k
  in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      if left then push x;
      incr i
    end
    else if y < x then begin
      if right then push y;
      incr j
    end
    else begin
      if both then push x;
      incr i;
      incr j
    end
  done;
  if left then
    while !i < na do
      push a.(!i);
      incr i
    done;
  if right then
    while !j < nb do
      push b.(!j);
      incr j
    done;
  if !k = na + nb then out else Array.sub out 0 !k

let binop t op a b =
  let key = if op <> 2 && a > b then (op, b, a) else (op, a, b) in
  match Hashtbl.find_opt t.op_memo key with
  | Some r ->
      t.memo_hits <- t.memo_hits + 1;
      r
  | None ->
      let aa = to_array t a and ba = to_array t b in
      let out =
        if op = 0 then merge ~left:true ~both:true ~right:true aa ba
        else if op = 1 then merge ~left:false ~both:true ~right:false aa ba
        else merge ~left:true ~both:false ~right:false aa ba
      in
      let r = intern_unchecked t out in
      Hashtbl.replace t.op_memo key r;
      r

let union t a b = if a = 0 then b else if b = 0 then a else if a = b then a else binop t 0 a b
let inter t a b = if a = 0 || b = 0 then 0 else if a = b then a else binop t 1 a b
let diff t a b = if a = 0 || a = b then 0 else if b = 0 then a else binop t 2 a b

let union_many t ids = List.fold_left (union t) 0 (List.sort_uniq Int.compare ids)

let stats t : Bionav_util.Docset_arena.stats =
  {
    sets = t.n;
    bytes = t.bytes;
    dense = t.dense_count;
    sparse = t.sparse_count;
    intern_requests = t.intern_requests;
    dedup_hits = t.dedup_hits;
    memo_hits = t.memo_hits;
  }
