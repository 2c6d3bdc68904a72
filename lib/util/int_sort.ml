(* Every index used below lies in [0, len), which [sort_prefix] checks
   once against the array: the partition scans stay inside [lo, hi]
   because the median of three leaves a stopper at each end. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i v = Array.unsafe_set a i v

let swap (a : int array) i j =
  let t = get a i in
  set a i (get a j);
  set a j t

(* Sorts the inclusive range [lo, hi]. *)
let insertion (a : int array) lo hi =
  for i = lo + 1 to hi do
    let v = get a i in
    let j = ref (i - 1) in
    while !j >= lo && get a !j > v do
      set a (!j + 1) (get a !j);
      decr j
    done;
    set a (!j + 1) v
  done

(* Max-heap of [n] elements stored from a.(lo): sift heap slot [i] down. *)
let sift_down (a : int array) lo n i =
  let v = get a (lo + i) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c = if l + 1 < n && get a (lo + l + 1) > get a (lo + l) then l + 1 else l in
      if get a (lo + c) > v then begin
        set a (lo + !i) (get a (lo + c));
        i := c
      end
      else sifting := false
    end
  done;
  set a (lo + !i) v

let heapsort (a : int array) lo hi =
  let n = hi - lo + 1 in
  for i = (n / 2) - 1 downto 0 do
    sift_down a lo n i
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift_down a lo last 0
  done

let rec introsort (a : int array) lo hi depth =
  if hi - lo < 16 then insertion a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    (* Median of three: afterwards a.(lo) <= pivot <= a.(hi). *)
    let mid = lo + ((hi - lo) / 2) in
    if get a mid < get a lo then swap a mid lo;
    if get a hi < get a lo then swap a hi lo;
    if get a hi < get a mid then swap a hi mid;
    let p = get a mid in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while get a !i < p do incr i done;
      while get a !j > p do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    (* [lo, !j] <= p <= [!i, hi]; recurse into the smaller side first. *)
    if !j - lo < hi - !i then begin
      introsort a lo !j (depth - 1);
      introsort a !i hi (depth - 1)
    end
    else begin
      introsort a !i hi (depth - 1);
      introsort a lo !j (depth - 1)
    end
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let sort_prefix a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Int_sort.sort_prefix: bad length";
  if len > 1 then introsort a 0 (len - 1) (2 * log2 len)

let sorted_unique src =
  let a = Array.copy src in
  let n = Array.length a in
  sort_prefix a ~len:n;
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end
