type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let copy t = { state = t.state }

(* Non-negative 62-bit integer: OCaml ints are 63-bit, so drop two top bits. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let rec draw () =
    let v = positive_int t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  assert (bound > 0.);
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Partial Fisher-Yates: the first k slots end up a uniform sample. *)
let sample_in_place t k arr ~len =
  let k = min k len in
  for i = 0 to k - 1 do
    let j = int_in t i (len - 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  k

let sample t k arr =
  let copy = Array.copy arr in
  Array.sub copy 0 (sample_in_place t k copy ~len:(Array.length copy))

let geometric t p =
  assert (p > 0. && p <= 1.);
  if p >= 1. then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1. -. p)))

let gaussian t ~mean ~stddev =
  let u1 =
    let u = float t 1.0 in
    if u <= 0. then epsilon_float else u
  in
  let u2 = float t 1.0 in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)
