type t = int array
(* Invariant: strictly increasing. *)

let check_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

let empty = [||]

let is_empty t = Array.length t = 0

let singleton x = [| x |]

let of_array = Int_sort.sorted_unique

let of_list l = of_array (Array.of_list l)

let of_sorted_array_unchecked a =
  assert (check_sorted a);
  a

let cardinal = Array.length

(* Two passes: count each column, then fill exact-size arrays. Rows are
   visited in increasing index order, so every column comes out sorted
   and duplicate-free with no per-element allocation. *)
let transpose ~n_cols rows =
  let counts = Array.make n_cols 0 in
  for r = 0 to Array.length rows - 1 do
    let row = rows.(r) in
    for i = 0 to Array.length row - 1 do
      let c = row.(i) in
      if c < 0 || c >= n_cols then
        invalid_arg
          (Printf.sprintf "Intset.transpose: row %d holds %d, outside [0, %d)" r c n_cols);
      counts.(c) <- counts.(c) + 1
    done
  done;
  let cols = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 n_cols 0;
  for r = 0 to Array.length rows - 1 do
    let row = rows.(r) in
    for i = 0 to Array.length row - 1 do
      let c = row.(i) in
      cols.(c).(counts.(c)) <- r;
      counts.(c) <- counts.(c) + 1
    done
  done;
  cols

let mem x t =
  let lo = ref 0 and hi = ref (Array.length t - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) = x then found := true
    else if t.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!k) <- x; incr i end
      else if y < x then begin out.(!k) <- y; incr j end
      else begin out.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin out.(!k) <- x; incr i; incr j; incr k end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let inter_cardinal a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin incr i; incr j; incr k end
  done;
  !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin out.(!k) <- x; incr i; incr k end
    else if y < x then incr j
    else begin incr i; incr j end
  done;
  while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
  if !k = na then out else Array.sub out 0 !k

let add x t = if mem x t then t else union (singleton x) t

let remove x t = if mem x t then diff t (singleton x) else t

(* Heap-based k-way merge: a binary min-heap of (head value, source, cursor)
   emits the global minimum per step, so total work is O(N log k) with one
   output pass and no intermediate merge arrays. *)
let union_many_heap sets =
  let srcs = Array.of_list sets in
  let k = Array.length srcs in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 srcs in
  (* heap.(i) = (current head value, source index); idx.(s) = cursor into
     source s. Invariant: every live source appears exactly once. *)
  let heap = Array.make k (0, 0) in
  let idx = Array.make k 0 in
  let hn = ref 0 in
  let swap i j =
    let tmp = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- tmp
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if fst heap.(i) < fst heap.(p) then begin
        swap i p;
        sift_up p
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !hn && fst heap.(l) < fst heap.(!m) then m := l;
    if r < !hn && fst heap.(r) < fst heap.(!m) then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  Array.iteri
    (fun s src ->
      if Array.length src > 0 then begin
        heap.(!hn) <- (src.(0), s);
        incr hn;
        sift_up (!hn - 1)
      end)
    srcs;
  let out = Array.make total 0 in
  let n = ref 0 in
  while !hn > 0 do
    let v, s = heap.(0) in
    if !n = 0 || out.(!n - 1) <> v then begin
      out.(!n) <- v;
      incr n
    end;
    idx.(s) <- idx.(s) + 1;
    if idx.(s) < Array.length srcs.(s) then begin
      heap.(0) <- (srcs.(s).(idx.(s)), s);
      sift_down 0
    end
    else begin
      decr hn;
      if !hn > 0 then begin
        heap.(0) <- heap.(!hn);
        sift_down 0
      end
    end
  done;
  if !n = total then out else Array.sub out 0 !n

let union_many sets =
  (* Pairwise balanced merging is cache-friendlier for few operands; the
     heap wins once the merge tree gets deep. *)
  let k = List.length sets in
  if k > 8 then union_many_heap sets
  else
    let rec round = function
      | [] -> empty
      | [ s ] -> s
      | sets ->
          let rec pair acc = function
            | [] -> acc
            | [ s ] -> s :: acc
            | a :: b :: rest -> pair (union a b :: acc) rest
          in
          round (pair [] sets)
    in
    round sets

let subset a b = inter_cardinal a b = cardinal a

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let elements t = Array.to_list t

let to_array t = Array.copy t

let iter f t = Array.iter f t

let fold f t init = Array.fold_left (fun acc x -> f x acc) init t

let choose t = if is_empty t then raise Not_found else t.(0)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       Format.pp_print_int)
    (elements t)
