type id = int

(* Physical representation of one interned set. The density split follows
   the hybrid posting-list design from the IR literature: a set whose
   packed bitset over its own span is smaller than its sorted array is
   stored as the bitset (32 payload bits per word so popcounts stay in
   Bits.pop32 territory), everything else as the sorted array. The choice
   is deterministic in the content, so structurally equal sets always pack
   identically and interning can compare representations directly. *)
type repr =
  | Sparse of int array  (* sorted strictly increasing *)
  | Dense of { base : int; words : int array; card : int }
      (* bit [i] of [words.(w)] set <=> [base + 32*w + i] is a member;
         [base] is a multiple of 32 and elements are non-negative *)

(* Storage uses the OCaml 5 publication idiom so that pure reads need no
   lock even while a writer interns new sets: a writer that needs room
   first publishes a grown copy of [reprs]/[fps] via Atomic.set, then
   fills the new slot with plain stores, and only then publishes the slot
   via [Atomic.set n]. A reader that loads [n] first and the arrays second
   therefore always sees fully-initialized slots for every id below the
   [n] it read. Ids at or above that [n] simply don't exist yet from the
   reader's point of view.

   Writers from any number of domains serialize on [lock], which guards
   the slot publication, the intern/memo hashtables and the mutable stat
   fields. Merges and counts run outside it: set algebra probes its memo
   under the lock, computes without it, then interns the result (which
   re-checks for an equal set) and memoizes it under the lock again. *)
type t = {
  lock : bool Atomic.t;  (* spin lock; [true] while held *)
  reprs : repr array Atomic.t;
  fps : int array Atomic.t;
  n : int Atomic.t;
  (* Each table is created on its first insert, so an arena that never
     runs set algebra (one per value, one per segment block) owns one. *)
  mutable intern_tbl : (int, id list ref) Hashtbl.t option;  (* fingerprint -> candidate ids *)
  mutable op_memo : (int * id * id, id) Hashtbl.t option;
  mutable count_memo : (id * id, int) Hashtbl.t option;  (* normalized pair -> |a inter b| *)
  mutable bytes : int;
  mutable dense_count : int;
  mutable sparse_count : int;
  mutable intern_requests : int;
  mutable dedup_hits : int;
  mutable memo_hits : int;
}

let empty_id = 0

(* Process-wide monotonic counters; per-arena levels live in [stats] and
   are published as gauges by whoever owns the live arenas (the engine). *)
let interned_counter = Metrics.counter "bionav_docset_interned_sets_total"
let dedup_counter = Metrics.counter "bionav_docset_dedup_hits_total"
let memo_counter = Metrics.counter "bionav_docset_memo_hits_total"
let dense_counter = Metrics.counter "bionav_docset_dense_sets_total"
let sparse_counter = Metrics.counter "bionav_docset_sparse_sets_total"

let word_bits = 32

let fp_seed = 0x1505

let fp_prime = 0x100000001b3

(* Fingerprint of [buf.(off) .. buf.(off + len - 1)]. *)
let fingerprint_sub buf off len =
  let h = ref fp_seed in
  for i = off to off + len - 1 do
    h := (!h lxor buf.(i)) * fp_prime land max_int
  done;
  !h

let create () =
  (* The empty set is pre-interned as id 0 without counting as a request. *)
  let reprs = Array.make 4 (Sparse [||]) in
  let fps = Array.make 4 fp_seed in
  {
    lock = Atomic.make false;
    reprs = Atomic.make reprs;
    fps = Atomic.make fps;
    n = Atomic.make 1;
    intern_tbl = None;
    op_memo = None;
    count_memo = None;
    bytes = 0;
    dense_count = 0;
    sparse_count = 1;
    intern_requests = 0;
    dedup_hits = 0;
    memo_hits = 0;
  }

(* A test-and-test-and-set lock on one Atomic: an arena that never meets a
   second domain (most of them: per-value sets, segment blocks) pays one
   small allocation for it and no finaliser or syscall. Critical sections
   are table probes and inserts, so a waiter spins; every 64th spin it
   sleeps briefly instead, in case the holder's core was taken away. *)
let lock t =
  if not (Atomic.compare_and_set t.lock false true) then begin
    let spins = ref 0 in
    while Atomic.get t.lock || not (Atomic.compare_and_set t.lock false true) do
      incr spins;
      if !spins land 63 = 0 then Unix.sleepf 1e-5 else Domain.cpu_relax ()
    done
  end

let unlock t = Atomic.set t.lock false

(* --- representation helpers ------------------------------------------- *)

let repr_cardinal = function Sparse a -> Array.length a | Dense d -> d.card

let repr_bytes = function
  | Sparse a -> (8 * Array.length a) + 24
  | Dense d -> (8 * Array.length d.words) + 40

let repr_iter r f =
  match r with
  | Sparse a -> Array.iter f a
  | Dense { base; words; _ } ->
      Array.iteri
        (fun wi word ->
          let w = ref word in
          while !w <> 0 do
            let b = !w land - !w in
            f (base + (word_bits * wi) + Bits.popcount (b - 1));
            w := !w land lnot b
          done)
        words

(* Write the members, ascending, to [out.(0) .. out.(cardinal - 1)]. *)
let unpack_into r out =
  match r with
  | Sparse a -> Array.blit a 0 out 0 (Array.length a)
  | Dense { base; words; _ } ->
      let k = ref 0 in
      for wi = 0 to Array.length words - 1 do
        let w = ref words.(wi) in
        while !w <> 0 do
          let b = !w land - !w in
          out.(!k) <- base + (word_bits * wi) + Bits.popcount (b - 1);
          incr k;
          w := !w land lnot b
        done
      done

let repr_to_array r =
  match r with
  | Sparse a -> Array.copy a
  | Dense d ->
      let out = Array.make d.card 0 in
      unpack_into r out;
      out

let repr_mem r x =
  match r with
  | Sparse a ->
      let lo = ref 0 and hi = ref (Array.length a - 1) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) = x then found := true
        else if a.(mid) < x then lo := mid + 1
        else hi := mid - 1
      done;
      !found
  | Dense { base; words; _ } ->
      let idx = x - base in
      idx >= 0
      && idx < word_bits * Array.length words
      && words.(idx / word_bits) land (1 lsl (idx mod word_bits)) <> 0

(* Structural equality between an interned representation and the
   sorted slice [buf.(off) .. buf.(off + len - 1)], allocation-free. *)
let repr_equal_sub r buf off len =
  let ok = ref true and i = ref 0 in
  (match r with
  | Sparse b ->
      if Array.length b <> len then ok := false
      else
        while !ok && !i < len do
          if buf.(off + !i) <> b.(!i) then ok := false;
          incr i
        done
  | Dense d ->
      if d.card <> len then ok := false
      else
        while !ok && !i < len do
          if not (repr_mem r buf.(off + !i)) then ok := false;
          incr i
        done);
  !ok

let repr_equal_array r a = repr_equal_sub r a 0 (Array.length a)

(* Pack the sorted strictly-increasing slice [buf.(off) .. buf.(off +
   len - 1)] into the denser of the two representations. A sorted-array
   result keeps [buf] itself when [keep] (the slice is all of it) and
   copies the slice otherwise. Negative elements force the sorted array. *)
let pack ~keep buf off len =
  let sparse () = if keep then Sparse buf else Sparse (Array.sub buf off len) in
  if len = 0 then Sparse [||]
  else begin
    let lo = buf.(off) and hi = buf.(off + len - 1) in
    if lo < 0 then sparse ()
    else begin
      let base = lo / word_bits * word_bits in
      let n_words = ((hi - base) / word_bits) + 1 in
      (* The bitset wins when its word count (plus header) undercuts the
         element count: density above ~1/32 across the span. *)
      if n_words + 4 >= len then sparse ()
      else begin
        let words = Array.make n_words 0 in
        for i = off to off + len - 1 do
          let idx = buf.(i) - base in
          words.(idx / word_bits) <- words.(idx / word_bits) lor (1 lsl (idx mod word_bits))
        done;
        Dense { base; words; card = len }
      end
    end
  end

(* --- read-side access (lock-free) -------------------------------------- *)

(* Load [n] before the arrays: the writer publishes grown arrays before
   bumping [n], so any id that passes this bound check has a valid slot
   in the arrays fetched afterwards. *)
let check_id t id =
  if id < 0 || id >= Atomic.get t.n then
    invalid_arg (Printf.sprintf "Docset_arena: unknown id %d" id)

let get_repr t id = (Atomic.get t.reprs).(id)

let get_fp t id = (Atomic.get t.fps).(id)

(* --- interning --------------------------------------------------------- *)

let grow t n =
  if n = Array.length (Atomic.get t.reprs) then begin
    let cap = 2 * n in
    let reprs = Array.make cap (Sparse [||]) in
    Array.blit (Atomic.get t.reprs) 0 reprs 0 n;
    Atomic.set t.reprs reprs;
    let fps = Array.make cap 0 in
    Array.blit (Atomic.get t.fps) 0 fps 0 n;
    Atomic.set t.fps fps
  end

let adopt (_ : t) = ()

(* The interned non-empty set equal to the slice, or -1. Called under
   the lock. *)
let rec find_in_bucket t bucket buf off len =
  match bucket with
  | [] -> -1
  | id :: rest ->
      if repr_equal_sub (get_repr t id) buf off len then id
      else find_in_bucket t rest buf off len

let find_locked t fp buf off len =
  match t.intern_tbl with
  | None -> -1
  | Some tbl -> (
      match Hashtbl.find_opt tbl fp with
      | None -> -1
      | Some bucket -> find_in_bucket t !bucket buf off len)

(* Index the newly published [id] by fingerprint. Called under the lock. *)
let index_locked t fp id =
  let tbl =
    match t.intern_tbl with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        t.intern_tbl <- Some tbl;
        tbl
  in
  match Hashtbl.find_opt tbl fp with
  | Some bucket -> bucket := id :: !bucket
  | None -> Hashtbl.add tbl fp (ref [ id ])

(* Where a missed set's storage comes from: the interned array is the
   caller's whole [buf] ([Owned]: the caller hands it over), a copy of
   the slice ([Borrowed]), or an equal representation interned in another
   arena ([Shared]; representations are immutable, so two arenas may hold
   the same one). *)
type source = Owned | Borrowed | Shared of repr

(* Intern the sorted strictly-increasing slice [buf.(off) .. buf.(off +
   len - 1)] whose fingerprint is [fp]. A dedup hit allocates nothing. *)
let intern_slice t source fp buf off len =
  Metrics.incr interned_counter;
  lock t;
  t.intern_requests <- t.intern_requests + 1;
  (* An empty slice is the pre-interned empty set, which is not indexed. *)
  let found = if len = 0 then empty_id else find_locked t fp buf off len in
  if found >= 0 then begin
    t.dedup_hits <- t.dedup_hits + 1;
    unlock t;
    Metrics.incr dedup_counter;
    found
  end
  else begin
    let r =
      match source with
      | Shared r -> r
      | Owned -> pack ~keep:(off = 0 && len = Array.length buf) buf off len
      | Borrowed -> pack ~keep:false buf off len
    in
    let id = Atomic.get t.n in
    grow t id;
    (* Fill the slot with plain stores, then publish it via [n]. *)
    (Atomic.get t.reprs).(id) <- r;
    (Atomic.get t.fps).(id) <- fp;
    Atomic.set t.n (id + 1);
    index_locked t fp id;
    t.bytes <- t.bytes + repr_bytes r;
    (match r with
    | Dense _ -> t.dense_count <- t.dense_count + 1
    | Sparse _ -> t.sparse_count <- t.sparse_count + 1);
    unlock t;
    Metrics.incr (match r with Dense _ -> dense_counter | Sparse _ -> sparse_counter);
    id
  end

let intern_unchecked t a =
  let len = Array.length a in
  intern_slice t Owned (fingerprint_sub a 0 len) a 0 len

let intern_sub t buf ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length buf then
    invalid_arg "Docset_arena.intern_sub: slice out of bounds";
  intern_slice t Borrowed (fingerprint_sub buf off len) buf off len

let intern t a =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then
      invalid_arg "Docset_arena.intern: array must be sorted strictly increasing"
  done;
  let len = Array.length a in
  intern_slice t Borrowed (fingerprint_sub a 0 len) a 0 len

(* Intern set [id] of [src] into [t] — the same id when [src == t]. On a
   miss the representation is shared, not copied. A sorted array is
   compared in place; a bitset is unpacked for the comparison. *)
let import t ~src id =
  check_id src id;
  if src == t then id
  else begin
    let r = get_repr src id in
    let a = match r with Sparse a -> a | Dense _ -> repr_to_array r in
    intern_slice t (Shared r) (get_fp src id) a 0 (Array.length a)
  end

(* --- accessors --------------------------------------------------------- *)

let cardinal t id =
  check_id t id;
  repr_cardinal (get_repr t id)

let fingerprint t id =
  check_id t id;
  get_fp t id

let mem t id x =
  check_id t id;
  repr_mem (get_repr t id) x

let to_array t id =
  check_id t id;
  repr_to_array (get_repr t id)

let iter t id f =
  check_id t id;
  repr_iter (get_repr t id) f

let fold t id f init =
  check_id t id;
  let acc = ref init in
  repr_iter (get_repr t id) (fun x -> acc := f x !acc);
  !acc

let choose t id =
  check_id t id;
  match get_repr t id with
  | Sparse [||] -> raise Not_found
  | Sparse a -> a.(0)
  | Dense { base; words; _ } ->
      let rec first wi =
        if wi = Array.length words then raise Not_found
        else if words.(wi) = 0 then first (wi + 1)
        else base + (word_bits * wi) + Bits.popcount ((words.(wi) land -words.(wi)) - 1)
      in
      first 0

let equal_array t id a =
  check_id t id;
  repr_equal_array (get_repr t id) a

(* --- set algebra ------------------------------------------------------- *)

(* Merge the sorted prefixes [a.(0 .. na-1)] and [b.(0 .. nb-1)] into
   [out], keeping elements only in [a] ([left]), in both ([both]) or only
   in [b] ([right]): union, intersection or difference. Returns the
   result's length. *)
let merge_into ~left ~both ~right a na b nb out =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      if left then begin
        out.(!k) <- x;
        incr k
      end;
      incr i
    end
    else if y < x then begin
      if right then begin
        out.(!k) <- y;
        incr k
      end;
      incr j
    end
    else begin
      if both then begin
        out.(!k) <- x;
        incr k
      end;
      incr i;
      incr j
    end
  done;
  if left then begin
    Array.blit a !i out !k (na - !i);
    k := !k + (na - !i)
  end;
  if right then begin
    Array.blit b !j out !k (nb - !j);
    k := !k + (nb - !j)
  end;
  !k

(* Per-domain merge buffers: [left]/[right] hold unpacked bitset operands,
   [out] receives merge results. They only grow, so a domain's steady
   state allocates nothing here. An operation holds them until its result
   is interned; a systhread that finds its domain's buffers held (another
   thread of the domain was preempted mid-operation) works in fresh ones. *)
type scratch = {
  mutable busy : bool;
  mutable left : int array;
  mutable right : int array;
  mutable out : int array;
}

let fresh_scratch () = { busy = false; left = [||]; right = [||]; out = [||] }
let scratch = Domain.DLS.new_key fresh_scratch

let take_scratch () =
  let s = Domain.DLS.get scratch in
  let s = if s.busy then fresh_scratch () else s in
  s.busy <- true;
  s

let at_least buf n =
  if Array.length buf >= n then buf else Array.make (max n (2 * Array.length buf)) 0

let op_union = 0
let op_inter = 1
let op_diff = 2

(* Probe a memo table under the lock, counting a hit. [tbl] reads the
   table field, which a first insert may set from another domain. *)
let memo_find t tbl key =
  lock t;
  let r = match tbl t with None -> None | Some tbl -> Hashtbl.find_opt tbl key in
  if Option.is_some r then t.memo_hits <- t.memo_hits + 1;
  unlock t;
  if Option.is_some r then Metrics.incr memo_counter;
  r

(* Memoize a result computed outside the lock. Interning is canonical, so
   a racing domain that computed the same entry stores the same value. *)
let memo_add t tbl set key v =
  lock t;
  (match tbl t with
  | Some tbl -> Hashtbl.replace tbl key v
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace tbl key v;
      set t tbl);
  unlock t

let op_memo t = t.op_memo
let set_op_memo t tbl = t.op_memo <- Some tbl
let count_memo t = t.count_memo
let set_count_memo t tbl = t.count_memo <- Some tbl

(* The elements of [r] as a sorted array prefix: a sorted-array set is
   read in place (interned arrays are never mutated), a bitset is
   unpacked into [buf]. *)
let operand r buf =
  match r with
  | Sparse a -> a
  | Dense _ ->
      unpack_into r buf;
      buf

(* Merge [a op b] into [s.out] and intern the result. *)
let merge_and_intern t s op a b =
  let ra = get_repr t a and rb = get_repr t b in
  let na = repr_cardinal ra and nb = repr_cardinal rb in
  (match ra with Dense _ -> s.left <- at_least s.left na | Sparse _ -> ());
  (match rb with Dense _ -> s.right <- at_least s.right nb | Sparse _ -> ());
  s.out <- at_least s.out (if op = op_union then na + nb else na);
  let aa = operand ra s.left and ba = operand rb s.right in
  let len =
    if op = op_union then merge_into ~left:true ~both:true ~right:true aa na ba nb s.out
    else if op = op_inter then merge_into ~left:false ~both:true ~right:false aa na ba nb s.out
    else merge_into ~left:true ~both:false ~right:false aa na ba nb s.out
  in
  intern_slice t Borrowed (fingerprint_sub s.out 0 len) s.out 0 len

(* Set algebra on interned operands: memo hit, or a merge into this
   domain's scratch buffer that is then interned — copied out once, at its
   exact size, only when the result is a new set. *)
let binop t op a b =
  check_id t a;
  check_id t b;
  (* Union and intersection are commutative: normalize the key. *)
  let key = if op <> op_diff && a > b then (op, b, a) else (op, a, b) in
  match memo_find t op_memo key with
  | Some r -> r
  | None ->
      let s = take_scratch () in
      match merge_and_intern t s op a b with
      | r ->
          s.busy <- false;
          memo_add t op_memo set_op_memo key r;
          r
      | exception e ->
          s.busy <- false;
          raise e

let union t a b =
  if a = empty_id then b else if b = empty_id then a else if a = b then a else binop t op_union a b

let inter t a b =
  if a = empty_id || b = empty_id then empty_id
  else if a = b then a
  else binop t op_inter a b

let diff t a b = if a = empty_id || a = b then empty_id else if b = empty_id then a else binop t op_diff a b

let union_many t ids =
  let ids = List.sort_uniq Int.compare ids in
  List.fold_left (fun acc id -> union t acc id) empty_id ids

(* Allocation-free intersection cardinality: the cost model's hot loop.
   Dense/dense pairs fold SWAR popcounts over the overlapping word range;
   sparse/dense probes the bitset per element; sparse/sparse merge-counts. *)
let inter_cardinal_raw t a b =
  match (get_repr t a, get_repr t b) with
  | Sparse aa, Sparse ba ->
      let na = Array.length aa and nb = Array.length ba in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < na && !j < nb do
        let x = aa.(!i) and y = ba.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin
          incr i;
          incr j;
          incr k
        end
      done;
      !k
  | Dense da, Dense db ->
      let lo = max da.base db.base in
      let hi =
        min
          (da.base + (word_bits * Array.length da.words))
          (db.base + (word_bits * Array.length db.words))
      in
      let count = ref 0 in
      let w = ref lo in
      while !w < hi do
        let wa = da.words.((!w - da.base) / word_bits)
        and wb = db.words.((!w - db.base) / word_bits) in
        count := !count + Bits.popcount (wa land wb);
        w := !w + word_bits
      done;
      !count
  | Sparse aa, (Dense _ as d) ->
      let count = ref 0 in
      Array.iter (fun x -> if repr_mem d x then incr count) aa;
      !count
  | (Dense _ as d), Sparse ba ->
      let count = ref 0 in
      Array.iter (fun x -> if repr_mem d x then incr count) ba;
      !count

let inter_cardinal t a b =
  check_id t a;
  check_id t b;
  if a = empty_id || b = empty_id then 0
  else if a = b then repr_cardinal (get_repr t a)
  else begin
    let key = if a > b then (b, a) else (a, b) in
    match memo_find t count_memo key with
    | Some c -> c
    | None ->
        let c = inter_cardinal_raw t a b in
        memo_add t count_memo set_count_memo key c;
        c
  end

let union_cardinal t a b = cardinal t a + cardinal t b - inter_cardinal t a b

let subset t a b = inter_cardinal t a b = cardinal t a

(* --- observability ----------------------------------------------------- *)

type stats = {
  sets : int;
  bytes : int;
  dense : int;
  sparse : int;
  intern_requests : int;
  dedup_hits : int;
  memo_hits : int;
}

let stats t =
  lock t;
  let st =
    {
      sets = Atomic.get t.n;
      bytes = t.bytes;
      dense = t.dense_count;
      sparse = t.sparse_count;
      intern_requests = t.intern_requests;
      dedup_hits = t.dedup_hits;
      memo_hits = t.memo_hits;
    }
  in
  unlock t;
  st

let dedup_hit_rate t =
  let st = stats t in
  if st.intern_requests = 0 then 0.
  else float_of_int st.dedup_hits /. float_of_int st.intern_requests
