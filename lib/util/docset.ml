module A = Docset_arena

type t = { arena : A.t; id : A.id }

let arena s = s.arena
let id s = s.id

(* One process-wide arena backs [empty] and any construction that does not
   name an arena. Sets built here migrate lazily: binary operations rebase
   into the left operand's arena, so shared-arena consumers are unaffected. *)
let shared = A.create ()

let empty = { arena = shared; id = A.empty_id }

let is_empty s = s.id = A.empty_id

(* --- construction -------------------------------------------------------- *)

let of_sorted_array_unchecked_in arena a = { arena; id = A.intern_unchecked arena a }
let of_array_in arena a = of_sorted_array_unchecked_in arena (Int_sort.sorted_unique a)
let of_list_in arena l = of_array_in arena (Array.of_list l)
let singleton_in arena x = of_sorted_array_unchecked_in arena [| x |]
let of_intset_in arena s = of_sorted_array_unchecked_in arena (Intset.to_array s)

let of_sorted_array_unchecked a = of_sorted_array_unchecked_in (A.create ()) a
let of_array a = of_array_in (A.create ()) a
let of_list l = of_list_in (A.create ()) l
let singleton x = singleton_in (A.create ()) x
let of_intset s = of_intset_in (A.create ()) s

let in_arena arena s =
  if s.arena == arena then s else { arena; id = A.import arena ~src:s.arena s.id }

(* Per-domain buffers for [group_in]; they only grow. A systhread that
   finds its domain's buffers taken works in fresh ones. *)
type group_scratch = {
  mutable busy : bool;
  mutable keys : int array;
  mutable vals : int array;
  mutable ends : int array;
  mutable sorted : int array;
}

let fresh_group_scratch () = { busy = false; keys = [||]; vals = [||]; ends = [||]; sorted = [||] }
let group_scratch = Domain.DLS.new_key fresh_group_scratch

(* Collect the emitted pairs, then sort them stably by key: count, turn
   counts into start offsets, scatter. Afterwards [s.ends.(k)] is the end
   of key [k]'s run in [s.sorted], which is where key [k + 1]'s run
   starts. *)
let group_sort s ~n_keys feed =
  let n = ref 0 in
  feed (fun key x ->
      if key < 0 || key >= n_keys then
        invalid_arg (Printf.sprintf "Docset.group_in: key %d outside [0, %d)" key n_keys);
      if !n = Array.length s.keys then begin
        let cap = max 1024 (2 * !n) in
        let keys = Array.make cap 0 and vals = Array.make cap 0 in
        Array.blit s.keys 0 keys 0 !n;
        Array.blit s.vals 0 vals 0 !n;
        s.keys <- keys;
        s.vals <- vals
      end;
      s.keys.(!n) <- key;
      s.vals.(!n) <- x;
      incr n);
  let n = !n and keys = s.keys and vals = s.vals in
  if Array.length s.ends < n_keys then s.ends <- Array.make n_keys 0
  else Array.fill s.ends 0 n_keys 0;
  if Array.length s.sorted < n then s.sorted <- Array.make n 0;
  let ends = s.ends and sorted = s.sorted in
  for i = 0 to n - 1 do
    ends.(keys.(i)) <- ends.(keys.(i)) + 1
  done;
  let start = ref 0 in
  for k = 0 to n_keys - 1 do
    let c = ends.(k) in
    ends.(k) <- !start;
    start := !start + c
  done;
  for i = 0 to n - 1 do
    let k = keys.(i) in
    sorted.(ends.(k)) <- vals.(i);
    ends.(k) <- ends.(k) + 1
  done

(* Intern every non-empty run of [s.sorted] into [arena], in ascending or
   descending key order; the groups come back in ascending key order. *)
let group_intern s arena ~n_keys ~descending =
  let ends = s.ends and sorted = s.sorted in
  let group k acc =
    let lo = if k = 0 then 0 else ends.(k - 1) in
    for i = lo + 1 to ends.(k) - 1 do
      if sorted.(i - 1) >= sorted.(i) then
        invalid_arg "Docset.group_in: a key's elements must arrive strictly increasing"
    done;
    if ends.(k) = lo then acc
    else (k, { arena; id = A.intern_sub arena sorted ~off:lo ~len:(ends.(k) - lo) }) :: acc
  in
  let acc = ref [] in
  if descending then
    for k = n_keys - 1 downto 0 do
      acc := group k !acc
    done
  else begin
    for k = 0 to n_keys - 1 do
      acc := group k !acc
    done;
    acc := List.rev !acc
  end;
  !acc

let group_in arena ~n_keys ?(descending = false) feed =
  let s = Domain.DLS.get group_scratch in
  let s = if s.busy then fresh_group_scratch () else s in
  s.busy <- true;
  match
    group_sort s ~n_keys feed;
    group_intern s arena ~n_keys ~descending
  with
  | groups ->
      s.busy <- false;
      groups
  | exception e ->
      s.busy <- false;
      raise e

let consolidate sets =
  let n = Array.length sets in
  if n = 0 then sets
  else begin
    let target = ref None in
    Array.iter
      (fun s -> if !target = None && not (is_empty s) then target := Some s.arena)
      sets;
    match !target with
    | None -> sets
    | Some arena -> Array.map (in_arena arena) sets
  end

(* --- queries ------------------------------------------------------------- *)

let cardinal s = A.cardinal s.arena s.id
let fingerprint s = A.fingerprint s.arena s.id
let mem x s = A.mem s.arena s.id x
let choose s = A.choose s.arena s.id
let to_array s = A.to_array s.arena s.id
let to_intset s = Intset.of_sorted_array_unchecked (to_array s)
let iter f s = A.iter s.arena s.id f
let fold f s init = A.fold s.arena s.id f init
let elements s = fold (fun x acc -> x :: acc) s [] |> List.rev
let equal_array s a = A.equal_array s.arena s.id a

let equal a b =
  if a.arena == b.arena then a.id = b.id
  else
    fingerprint a = fingerprint b
    && cardinal a = cardinal b
    && A.equal_array a.arena a.id (to_array b)

let compare a b =
  if a.arena == b.arena && a.id = b.id then 0
  else
    let c = Int.compare (fingerprint a) (fingerprint b) in
    if c <> 0 then c
    else
      let aa = to_array a and ba = to_array b in
      let c = Int.compare (Array.length aa) (Array.length ba) in
      if c <> 0 then c
      else begin
        let r = ref 0 and i = ref 0 in
        while !r = 0 && !i < Array.length aa do
          r := Int.compare aa.(!i) ba.(!i);
          incr i
        done;
        !r
      end

(* --- set algebra ---------------------------------------------------------- *)

let binop f a b =
  let b = in_arena a.arena b in
  { arena = a.arena; id = f a.arena a.id b.id }

let union a b = if is_empty a then b else if is_empty b then a else binop A.union a b
let inter a b = if is_empty a || is_empty b then empty else binop A.inter a b
let diff a b = if is_empty a then empty else if is_empty b then a else binop A.diff a b

let union_many sets =
  match List.filter (fun s -> not (is_empty s)) sets with
  | [] -> empty
  | first :: _ as live ->
      let arena = first.arena in
      let ids = List.map (fun s -> (in_arena arena s).id) live in
      { arena; id = A.union_many arena ids }

let inter_cardinal a b =
  if is_empty a || is_empty b then 0
  else
    let b = in_arena a.arena b in
    A.inter_cardinal a.arena a.id b.id

let union_cardinal a b = cardinal a + cardinal b - inter_cardinal a b
let subset a b = inter_cardinal a b = cardinal a

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun x ->
      if !first then first := false else Format.fprintf fmt ",@ ";
      Format.pp_print_int fmt x)
    s;
  Format.fprintf fmt "}"
