open Bionav_util
open Bionav_core

type vnode = {
  id : int;
  label : string;
  weight : float;
  distinct : int;
  expandable : bool;
  parent : int;
  children : int list;
  members : int array;
  member_set : Docset.t;
  results : Docset.t;
}

type t = {
  epoch : int;
  query : string;
  space : string;
  refine_depth : int;
  model_fingerprint : string;
  stats : Navigation.stats;
  distinct_results : int;
  root : int;
  order : int list;
  index : (int, vnode) Hashtbl.t;
  nav : Nav_tree.t;
}

(* Visible parents from one preorder pass over the visible list: [open_]
   holds the visible ancestors of the current node, innermost first. *)
let parents nav order =
  let rec go open_ acc = function
    | [] -> acc
    | id :: rest ->
        let rec close = function
          | p :: up when not (Nav_tree.in_subtree nav ~root:p id) -> close up
          | open_ -> open_
        in
        let open_ = close open_ in
        let parent = match open_ with p :: _ -> p | [] -> -1 in
        go (id :: open_) ((id, parent) :: acc) rest
  in
  go [] [] order

let capture ~epoch ~query ?(space = "descriptor") ?(refine_depth = 0) navigation =
  let active = Navigation.active navigation in
  let nav = Active_tree.nav active in
  let order = Active_tree.visible active in
  let with_parent = parents nav order in
  let index = Hashtbl.create (max 16 (List.length order)) in
  let children = Hashtbl.create (max 16 (List.length order)) in
  List.iter
    (fun (id, parent) ->
      if parent >= 0 then
        Hashtbl.replace children parent
          (id :: Option.value ~default:[] (Hashtbl.find_opt children parent)))
    with_parent;
  (* The component's members, member set and results are the active
     tree's own values, shared rather than copied: the array is never
     mutated and the sets are immutable in the navigation arena. *)
  List.iter
    (fun (id, parent) ->
      let results = Active_tree.component_results active id in
      Hashtbl.replace index id
        {
          id;
          label = Nav_tree.label nav id;
          weight = Active_tree.component_weight active id;
          distinct = Docset.cardinal results;
          expandable = Active_tree.is_expandable active id;
          parent;
          children =
            (match Hashtbl.find_opt children id with
            | None -> []
            | Some kids -> Relevance.rank_visible active kids);
          members = Active_tree.component active id;
          member_set = Active_tree.component_set active id;
          results;
        })
    with_parent;
  {
    epoch;
    query;
    space;
    refine_depth;
    model_fingerprint = Navigation.model_fingerprint (Navigation.strategy navigation);
    stats = Navigation.stats navigation;
    distinct_results = Nav_tree.distinct_results nav;
    root = Nav_tree.root nav;
    order;
    index;
    nav;
  }

let epoch t = t.epoch
let query t = t.query
let space t = t.space
let refine_depth t = t.refine_depth
let model_fingerprint t = t.model_fingerprint
let stats t = t.stats
let distinct_results t = t.distinct_results
let root t = t.root
let visible t = t.order
let arena t = Nav_tree.arena t.nav
let nav t = t.nav
let find t id = Hashtbl.find_opt t.index id

let get t id =
  match find t id with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Nav_snapshot.get: node %d is not visible" id)

let mem t id = Hashtbl.mem t.index id

let iter t f = List.iter (fun id -> f (get t id)) t.order

let node_count t = Hashtbl.length t.index
