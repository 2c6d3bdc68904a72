(* Reference active tree and snapshot capture: the list-based
   Active_tree and the copying Nav_snapshot.capture as they were before
   components cached their state. Members are ascending lists kept in a
   Hashtbl, every result and weight is recomputed on each call, and
   capture interns copies of every component's members and results into
   a private arena and ranks children by rescanning the visible nodes.
   test_active_tree holds the production tree and capture to them vnode
   for vnode. Test-only. *)

open Bionav_util
open Bionav_core

type undo = { root : int; previous_members : int list; cut_children : int list }

type t = {
  nav : Nav_tree.t;
  comp_root : int array;  (* node -> root of its component *)
  visible : bool array;
  members : (int, int list) Hashtbl.t;  (* visible root -> ascending members *)
  mutable history : undo list;
}

let create nav =
  let n = Nav_tree.size nav in
  let comp_root = Array.make n 0 in
  let visible = Array.make n false in
  visible.(0) <- true;
  let members = Hashtbl.create 64 in
  Hashtbl.replace members 0 (List.init n Fun.id);
  { nav; comp_root; visible; members; history = [] }

let nav t = t.nav

let is_visible t i = t.visible.(i)

let visible t =
  let acc = ref [] in
  for i = Nav_tree.size t.nav - 1 downto 0 do
    if t.visible.(i) then acc := i :: !acc
  done;
  !acc

let component_root_of t i = t.comp_root.(i)

let component t r =
  if not t.visible.(r) then invalid_arg (Printf.sprintf "Active_tree.component: %d not visible" r);
  match Hashtbl.find_opt t.members r with
  | Some m -> m
  | None -> assert false

let component_size t r = List.length (component t r)

let component_results t r =
  Docset.union_many (List.map (Nav_tree.results t.nav) (component t r))

let component_distinct t r = Docset.cardinal (component_results t r)

(* The component's member ids as an interned set in the navigation arena:
   plan caches key on its O(1) content fingerprint instead of rehashing
   the member list. *)
let component_set t r =
  Docset.of_sorted_array_unchecked_in (Nav_tree.arena t.nav) (Array.of_list (component t r))

let is_expandable t r = t.visible.(r) && component_size t r > 1

let comp_tree t r = Nav_tree.comp_tree_of t.nav ~root:r ~members:(component t r)

let validate_cut t ~root ~cut_children =
  if not t.visible.(root) then
    invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not visible" root);
  if cut_children = [] then invalid_arg "Active_tree.apply_cut: empty cut";
  let member_set = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) (component t root);
  List.iter
    (fun c ->
      if c = root then invalid_arg "Active_tree.apply_cut: cannot cut at the component root";
      if not (Hashtbl.mem member_set c) then
        invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not in component of %d" c root))
    cut_children;
  let rec check_antichain = function
    | [] -> ()
    | c :: rest ->
        List.iter
          (fun c' ->
            if Nav_tree.in_subtree t.nav ~root:c c' || Nav_tree.in_subtree t.nav ~root:c' c then
              invalid_arg
                (Printf.sprintf "Active_tree.apply_cut: cut children %d and %d overlap" c c'))
          rest;
        check_antichain rest
  in
  check_antichain (List.sort_uniq Int.compare cut_children)

let apply_cut t ~root ~cut_children =
  let cut_children = List.sort_uniq Int.compare cut_children in
  validate_cut t ~root ~cut_children;
  let old_members = component t root in
  (* Route each member to the cut child whose subtree contains it (at most
     one, by the antichain property), or keep it in the upper component. *)
  let buckets = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace buckets c []) cut_children;
  let upper = ref [] in
  List.iter
    (fun m ->
      match List.find_opt (fun c -> Nav_tree.in_subtree t.nav ~root:c m) cut_children with
      | Some c ->
          Hashtbl.replace buckets c (m :: Hashtbl.find buckets c);
          t.comp_root.(m) <- c
      | None -> upper := m :: !upper)
    old_members;
  Hashtbl.replace t.members root (List.rev !upper);
  List.iter
    (fun c ->
      t.visible.(c) <- true;
      Hashtbl.replace t.members c (List.rev (Hashtbl.find buckets c)))
    cut_children;
  t.history <- { root; previous_members = old_members; cut_children } :: t.history;
  cut_children

let expand_static t root =
  if not t.visible.(root) then
    invalid_arg (Printf.sprintf "Active_tree.expand_static: %d not visible" root);
  let member_set = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace member_set m ()) (component t root);
  let kids = List.filter (Hashtbl.mem member_set) (Nav_tree.children t.nav root) in
  match kids with [] -> [] | _ :: _ -> apply_cut t ~root ~cut_children:kids

let backtrack t =
  match t.history with
  | [] -> false
  | { root; previous_members; cut_children } :: rest ->
      List.iter
        (fun c ->
          t.visible.(c) <- false;
          Hashtbl.remove t.members c)
        cut_children;
      List.iter (fun m -> t.comp_root.(m) <- root) previous_members;
      Hashtbl.replace t.members root previous_members;
      t.history <- rest;
      true

let visible_parent t i =
  let rec up j =
    let p = Nav_tree.parent t.nav j in
    if p = -1 then -1 else if t.visible.(p) then p else up p
  in
  up i

(* --- relevance, as Relevance computed it -------------------------------- *)

let component_weight t node =
  List.fold_left
    (fun acc m ->
      let l = Nav_tree.result_count t.nav m in
      if l = 0 then acc else acc +. (float_of_int l /. float_of_int (Nav_tree.total t.nav m)))
    0. (component t node)

let rank_visible t nodes =
  let weighted = List.map (fun n -> (n, component_weight t n)) nodes in
  List.map fst
    (List.sort
       (fun (na, a) (nb, b) -> if a = b then Int.compare na nb else Float.compare b a)
       weighted)

let ranked_children t node =
  rank_visible t (List.filter (fun v -> visible_parent t v = node) (visible t))

(* --- capture ------------------------------------------------------------- *)

(* The visible tree as Nav_snapshot vnodes, in preorder. *)
let capture t =
  let arena = Docset_arena.create () in
  List.map
    (fun id ->
      let members = Array.of_list (component t id) in
      let member_set = Docset.of_sorted_array_unchecked_in arena (Array.copy members) in
      let results =
        Docset.of_sorted_array_unchecked_in arena (Docset.to_array (component_results t id))
      in
      {
        Bionav_search.Nav_snapshot.id;
        label = Nav_tree.label t.nav id;
        weight = component_weight t id;
        distinct = Docset.cardinal results;
        expandable = is_expandable t id;
        parent = visible_parent t id;
        children = ranked_children t id;
        members;
        member_set;
        results;
      })
    (visible t)
