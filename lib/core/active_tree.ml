open Bionav_util

(* One component. [members] is never mutated once built; the derived
   values are filled in at most once, on first use, under whatever lock
   serializes the session. An undo entry can therefore keep the record
   and restore it, caches included. *)
type comp = {
  members : int array;  (* ascending navigation ids *)
  mutable results : Docset.t option;
  mutable member_set : Docset.t option;
  mutable weight : float option;
}

type undo = { root : int; previous : comp; cut_children : int list }

type t = {
  nav : Nav_tree.t;
  comp_root : int array;  (* node -> root of its component *)
  comps : comp array;  (* visible root -> its component; [hidden] elsewhere *)
  mutable visible : int list;  (* ascending *)
  mutable history : undo list;
}

(* Shared by every non-visible slot; never filled, since every accessor
   checks visibility first. *)
let hidden = { members = [||]; results = None; member_set = None; weight = None }

let comp_of members = { members; results = None; member_set = None; weight = None }

let create nav =
  let n = Nav_tree.size nav in
  let comps = Array.make n hidden in
  comps.(0) <- comp_of (Array.init n Fun.id);
  { nav; comp_root = Array.make n 0; comps; visible = [ 0 ]; history = [] }

let nav t = t.nav

let is_visible t i = t.comps.(i) != hidden
let visible t = t.visible

let component_root_of t i = t.comp_root.(i)

let comp t r =
  if not (is_visible t r) then
    invalid_arg (Printf.sprintf "Active_tree.component: %d not visible" r);
  t.comps.(r)

let component t r = (comp t r).members
let component_size t r = Array.length (component t r)

(* The members split greedily, in preorder, into maximal whole navigation
   subtrees, whose unions the tree build already interned, and the single
   nodes left on the paths down to cut-off subtrees. A component that is
   a whole subtree (the initial one, and every lower one right after its
   cut) is one piece; any other unions a few sets, not one per member. *)
let pieces t members =
  let n = Array.length members in
  let rec go i acc =
    if i >= n then acc
    else
      let m = members.(i) in
      let size = Nav_tree.subtree_size t.nav m in
      let last = i + size - 1 in
      (* Members are distinct and ascending, so the run from [m] holds
         m's whole subtree iff it reaches m's last descendant on time. *)
      if last < n && members.(last) = m + size - 1 then
        go (last + 1) (Nav_tree.subtree_results t.nav m :: acc)
      else go (i + 1) (Nav_tree.results t.nav m :: acc)
  in
  go 0 []

let component_results t r =
  let c = comp t r in
  match c.results with
  | Some s -> s
  | None ->
      let s = Docset.in_arena (Nav_tree.arena t.nav) (Docset.union_many (pieces t c.members)) in
      c.results <- Some s;
      s

let component_distinct t r = Docset.cardinal (component_results t r)

(* The member ids as an interned set in the navigation arena: plan caches
   key on its O(1) content fingerprint instead of rehashing the members.
   The arena may keep [members] itself, which is never mutated. *)
let component_set t r =
  let c = comp t r in
  match c.member_set with
  | Some s -> s
  | None ->
      let s = Docset.of_sorted_array_unchecked_in (Nav_tree.arena t.nav) c.members in
      c.member_set <- Some s;
      s

let component_weight t r =
  let c = comp t r in
  match c.weight with
  | Some w -> w
  | None ->
      let w =
        Array.fold_left
          (fun acc m ->
            let l = Nav_tree.result_count t.nav m in
            if l = 0 then acc else acc +. (float_of_int l /. float_of_int (Nav_tree.total t.nav m)))
          0. c.members
      in
      c.weight <- Some w;
      w

let is_expandable t r = is_visible t r && component_size t r > 1

let comp_tree t r = Nav_tree.comp_tree_of t.nav ~root:r ~members:(Array.to_list (component t r))

(* [cut_children] ascending and de-duplicated. *)
let validate_cut t ~root ~cut_children =
  if not (is_visible t root) then
    invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not visible" root);
  if cut_children = [] then invalid_arg "Active_tree.apply_cut: empty cut";
  let n = Nav_tree.size t.nav in
  List.iter
    (fun c ->
      if c = root then invalid_arg "Active_tree.apply_cut: cannot cut at the component root";
      if c < 0 || c >= n || t.comp_root.(c) <> root then
        invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not in component of %d" c root))
    cut_children;
  (* Subtrees are nested or disjoint preorder intervals, so an ascending
     list is an antichain iff no child lies in its predecessor's subtree. *)
  let rec check_antichain = function
    | c :: (c' :: _ as rest) ->
        if Nav_tree.in_subtree t.nav ~root:c c' then
          invalid_arg
            (Printf.sprintf "Active_tree.apply_cut: cut children %d and %d overlap" c c');
        check_antichain rest
    | [] | [ _ ] -> ()
  in
  check_antichain cut_children

let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' -> if x < y then x :: merge_sorted a' b else y :: merge_sorted a b'

let apply_cut t ~root ~cut_children =
  let cut_children = List.sort_uniq Int.compare cut_children in
  validate_cut t ~root ~cut_children;
  let previous = t.comps.(root) in
  let members = previous.members in
  let n = Array.length members in
  (* Members are in preorder and the cut children's subtrees are disjoint
     ascending preorder intervals, so one merge routes every member: each
     lower component is one contiguous run, the rest stays upper. *)
  let upper = Array.make n 0 in
  let n_upper = ref 0 and i = ref 0 in
  let keep_upper_until bound =
    while !i < n && members.(!i) < bound do
      upper.(!n_upper) <- members.(!i);
      incr n_upper;
      incr i
    done
  in
  List.iter
    (fun c ->
      keep_upper_until c;
      let last = c + Nav_tree.subtree_size t.nav c - 1 in
      let start = !i in
      while !i < n && members.(!i) <= last do
        t.comp_root.(members.(!i)) <- c;
        incr i
      done;
      t.comps.(c) <- comp_of (Array.sub members start (!i - start)))
    cut_children;
  keep_upper_until max_int;
  t.comps.(root) <- comp_of (Array.sub upper 0 !n_upper);
  t.visible <- merge_sorted t.visible cut_children;
  t.history <- { root; previous; cut_children } :: t.history;
  cut_children

(* The children of [root] inside its component: members other than the
   root are hidden, so component membership alone decides. *)
let hidden_children t root =
  ignore (comp t root : comp);
  List.filter (fun c -> t.comp_root.(c) = root) (Nav_tree.children t.nav root)

let expand_static t root =
  if not (is_visible t root) then
    invalid_arg (Printf.sprintf "Active_tree.expand_static: %d not visible" root);
  match hidden_children t root with
  | [] -> []
  | kids -> apply_cut t ~root ~cut_children:kids

let backtrack t =
  match t.history with
  | [] -> false
  | { root; previous; cut_children } :: rest ->
      (* Undo is last-in first-out, so each cut child's component is the
         one this cut made. *)
      List.iter
        (fun c ->
          Array.iter (fun m -> t.comp_root.(m) <- root) t.comps.(c).members;
          t.comps.(c) <- hidden)
        cut_children;
      t.comps.(root) <- previous;
      t.visible <- List.filter (fun v -> not (List.mem v cut_children)) t.visible;
      t.history <- rest;
      true

let visible_parent t i =
  let rec up j =
    let p = Nav_tree.parent t.nav j in
    if p = -1 then -1 else if is_visible t p then p else up p
  in
  up i

let render t =
  let buf = Buffer.create 1024 in
  (* Visualization depth = number of visible strict ancestors. *)
  let rec vis_depth i =
    match visible_parent t i with -1 -> 0 | p -> 1 + vis_depth p
  in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s (%d)%s\n"
           (String.make (2 * vis_depth v) ' ')
           (Nav_tree.label t.nav v) (component_distinct t v)
           (if is_expandable t v then " >>>" else "")))
    (visible t);
  Buffer.contents buf
