open Bionav_util
open Bionav_core

(* Nav tree fixture (nav ids):
     0 root {}
     1   a {1,2}
     2     b {2,3}
     3     c {4}
     4   d {5,6}
     5     e {6,7}        *)
let nav () =
  let h =
    Bionav_mesh.Hierarchy.of_parents
      ~labels:(fun i -> [| "MeSH"; "a"; "b"; "c"; "d"; "e" |].(i))
      [| -1; 0; 1; 1; 0; 4 |]
  in
  let attachments =
    [
      (1, Docset.of_list [ 1; 2 ]);
      (2, Docset.of_list [ 2; 3 ]);
      (3, Docset.of_list [ 4 ]);
      (4, Docset.of_list [ 5; 6 ]);
      (5, Docset.of_list [ 6; 7 ]);
    ]
  in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 100)

let test_initial_state () =
  let t = Active_tree.create (nav ()) in
  Alcotest.(check (list int)) "only root visible" [ 0 ] (Active_tree.visible t);
  Alcotest.(check (array int)) "root component holds all" [| 0; 1; 2; 3; 4; 5 |]
    (Active_tree.component t 0);
  Alcotest.(check int) "root distinct" 7 (Active_tree.component_distinct t 0);
  Alcotest.(check bool) "expandable" true (Active_tree.is_expandable t 0);
  for i = 0 to 5 do
    Alcotest.(check int) "all in root component" 0 (Active_tree.component_root_of t i)
  done

let test_apply_cut_splits () =
  let t = Active_tree.create (nav ()) in
  let revealed = Active_tree.apply_cut t ~root:0 ~cut_children:[ 1; 5 ] in
  Alcotest.(check (list int)) "revealed" [ 1; 5 ] revealed;
  Alcotest.(check (list int)) "visible" [ 0; 1; 5 ] (Active_tree.visible t);
  Alcotest.(check (array int)) "component of 1" [| 1; 2; 3 |] (Active_tree.component t 1);
  Alcotest.(check (array int)) "component of 5" [| 5 |] (Active_tree.component t 5);
  Alcotest.(check (array int)) "upper keeps rest" [| 0; 4 |] (Active_tree.component t 0);
  Alcotest.(check int) "4 now routed to root comp" 0 (Active_tree.component_root_of t 4);
  Alcotest.(check int) "2 routed to 1" 1 (Active_tree.component_root_of t 2)

let test_counts_shrink_after_cut () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  (* Upper component = {0, 4, 5}: results {5,6} u {6,7} = 3 distinct. *)
  Alcotest.(check int) "upper count" 3 (Active_tree.component_distinct t 0);
  Alcotest.(check int) "lower count" 4 (Active_tree.component_distinct t 1)

let test_expandable_flags () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 3; 5 ]);
  Alcotest.(check bool) "singleton not expandable" false (Active_tree.is_expandable t 3);
  Alcotest.(check bool) "upper expandable" true (Active_tree.is_expandable t 0)

let test_nested_cuts () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  let revealed = Active_tree.apply_cut t ~root:1 ~cut_children:[ 2; 3 ] in
  Alcotest.(check (list int)) "revealed leaves" [ 2; 3 ] revealed;
  Alcotest.(check (array int)) "1 now alone" [| 1 |] (Active_tree.component t 1);
  Alcotest.(check bool) "1 no longer expandable" false (Active_tree.is_expandable t 1)

let test_cut_skipping_levels () =
  (* EdgeCuts may reveal descendants that are not children (paper Fig. 3). *)
  let t = Active_tree.create (nav ()) in
  let revealed = Active_tree.apply_cut t ~root:0 ~cut_children:[ 2; 5 ] in
  Alcotest.(check (list int)) "grandchildren revealed" [ 2; 5 ] revealed;
  Alcotest.(check (array int)) "upper keeps intermediate nodes" [| 0; 1; 3; 4 |]
    (Active_tree.component t 0)

let test_visible_parent_embedding () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 2; 5 ]);
  (* 2's nav parent (1) is invisible; its visible parent is the root. *)
  Alcotest.(check int) "lifted to root" 0 (Active_tree.visible_parent t 2);
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  Alcotest.(check int) "now under 1" 1 (Active_tree.visible_parent t 2)

let test_backtrack () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  ignore (Active_tree.apply_cut t ~root:1 ~cut_children:[ 2 ]);
  Alcotest.(check bool) "undo inner" true (Active_tree.backtrack t);
  Alcotest.(check (array int)) "inner restored" [| 1; 2; 3 |] (Active_tree.component t 1);
  Alcotest.(check (list int)) "visible" [ 0; 1 ] (Active_tree.visible t);
  Alcotest.(check bool) "undo outer" true (Active_tree.backtrack t);
  Alcotest.(check (array int)) "initial restored" [| 0; 1; 2; 3; 4; 5 |]
    (Active_tree.component t 0);
  Alcotest.(check bool) "nothing left" false (Active_tree.backtrack t)

let rejects f = try ignore (f ()); false with Invalid_argument _ -> true

let test_cut_validation () =
  let t = Active_tree.create (nav ()) in
  Alcotest.(check bool) "empty cut" true
    (rejects (fun () -> Active_tree.apply_cut t ~root:0 ~cut_children:[]));
  Alcotest.(check bool) "cut at root" true
    (rejects (fun () -> Active_tree.apply_cut t ~root:0 ~cut_children:[ 0 ]));
  Alcotest.(check bool) "ancestor pair" true
    (rejects (fun () -> Active_tree.apply_cut t ~root:0 ~cut_children:[ 1; 2 ]));
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  Alcotest.(check bool) "outside component" true
    (rejects (fun () -> Active_tree.apply_cut t ~root:0 ~cut_children:[ 2 ]));
  Alcotest.(check bool) "invisible root" true
    (rejects (fun () -> Active_tree.apply_cut t ~root:4 ~cut_children:[ 5 ]))

let test_expand_static () =
  let t = Active_tree.create (nav ()) in
  let revealed = Active_tree.expand_static t 0 in
  Alcotest.(check (list int)) "all children" [ 1; 4 ] revealed;
  Alcotest.(check (array int)) "upper is singleton root" [| 0 |] (Active_tree.component t 0);
  let revealed2 = Active_tree.expand_static t 1 in
  Alcotest.(check (list int)) "children of 1" [ 2; 3 ] revealed2;
  (* Leaves reveal nothing. *)
  Alcotest.(check (list int)) "leaf static expand" [] (Active_tree.expand_static t 2)

let test_comp_tree_extraction () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 4 ]);
  let comp, map = Active_tree.comp_tree t 4 in
  Alcotest.(check int) "two nodes" 2 (Comp_tree.size comp);
  Alcotest.(check (array int)) "map" [| 4; 5 |] map;
  Alcotest.(check string) "label" "d" (Comp_tree.label comp 0)

let test_render_shows_visible () =
  let t = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut t ~root:0 ~cut_children:[ 1 ]);
  let s = Active_tree.render t in
  Alcotest.(check bool) "root line" true (String.length s > 0);
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Alcotest.(check int) "two visible nodes" 2 (List.length lines)

(* Property: any sequence of random valid cuts keeps components a partition
   of the nodes, each component connected under its root. *)
let qcheck_random_cut_sequences =
  QCheck.Test.make ~name:"cut sequences preserve partition invariants" ~count:150
    QCheck.(pair (int_range 0 5000) (int_range 1 12))
    (fun (seed, steps) ->
      let rng = Rng.create seed in
      let t = Active_tree.create (nav ()) in
      let ok = ref true in
      for _ = 1 to steps do
        let expandables = List.filter (Active_tree.is_expandable t) (Active_tree.visible t) in
        match expandables with
        | [] -> ()
        | _ ->
            let root = Rng.choice_list rng expandables in
            let members =
              List.filter (fun m -> m <> root) (Array.to_list (Active_tree.component t root))
            in
            (* Pick one random member; it is a valid singleton cut. *)
            let cut = [ Rng.choice_list rng members ] in
            ignore (Active_tree.apply_cut t ~root ~cut_children:cut)
      done;
      (* Invariant: components partition all nodes. *)
      let all =
        List.concat_map (fun r -> Array.to_list (Active_tree.component t r)) (Active_tree.visible t)
      in
      if List.sort Int.compare all <> [ 0; 1; 2; 3; 4; 5 ] then ok := false;
      (* Invariant: component_root_of agrees with membership. *)
      List.iter
        (fun r ->
          Array.iter
            (fun m -> if Active_tree.component_root_of t m <> r then ok := false)
            (Active_tree.component t r))
        (Active_tree.visible t);
      !ok)

(* Heuristic-driven sessions on random navigation trees keep the partition
   invariants too (cuts may skip levels, unlike the singleton cuts above). *)
let qcheck_heuristic_sessions =
  QCheck.Test.make ~name:"heuristic cut sequences preserve invariants" ~count:60
    QCheck.(pair (int_range 4 40) (int_range 0 5_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
      let h = Bionav_mesh.Hierarchy.of_parents parent in
      let attachments =
        List.init (n - 1) (fun i ->
            (i + 1, Docset.of_list (List.init (1 + Rng.int rng 10) (fun j -> (i * 7) + j))))
      in
      let nav_tree = Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 500) in
      let t = Active_tree.create nav_tree in
      let ok = ref true in
      let rec loop guard =
        if guard = 0 then ()
        else
          match List.filter (Active_tree.is_expandable t) (Active_tree.visible t) with
          | [] -> ()
          | root :: _ ->
              let comp, _ = Active_tree.comp_tree t root in
              let report = Bionav_core.Heuristic.best_cut comp in
              let cut =
                List.map (Comp_tree.tag comp) report.Bionav_core.Heuristic.cut_children
              in
              ignore (Active_tree.apply_cut t ~root ~cut_children:cut);
              let all =
                List.concat_map
                  (fun r -> Array.to_list (Active_tree.component t r))
                  (Active_tree.visible t)
              in
              if List.sort Int.compare all <> List.init (Nav_tree.size nav_tree) Fun.id then
                ok := false;
              loop (guard - 1)
      in
      loop 30;
      !ok)

(* --- differential against the list-based reference ---------------------- *)

module Oracle = Active_tree_oracle
module Snap = Bionav_search.Nav_snapshot
module Q = Bionav_workload.Queries

let workload = lazy (Q.build ~config:Q.small_config ~seed:5 ())

let check_same_snapshot step navigation oracle =
  let active = Navigation.active navigation in
  let snap = Snap.capture ~epoch:step ~query:"q" navigation in
  let expected = Oracle.capture oracle in
  let fail fmt = Alcotest.failf ("step %d: " ^^ fmt) step in
  if Snap.visible snap <> List.map (fun (v : Snap.vnode) -> v.Snap.id) expected then
    fail "visible order differs";
  List.iter
    (fun (e : Snap.vnode) ->
      let v = Snap.get snap e.Snap.id in
      let id = e.Snap.id in
      if v.Snap.label <> e.Snap.label then fail "node %d: label" id;
      if Int64.bits_of_float v.Snap.weight <> Int64.bits_of_float e.Snap.weight then
        fail "node %d: weight %h <> %h" id v.Snap.weight e.Snap.weight;
      if v.Snap.distinct <> e.Snap.distinct then fail "node %d: distinct" id;
      if v.Snap.expandable <> e.Snap.expandable then fail "node %d: expandable" id;
      if v.Snap.parent <> e.Snap.parent then fail "node %d: parent" id;
      if v.Snap.children <> e.Snap.children then fail "node %d: children" id;
      if v.Snap.members <> e.Snap.members then fail "node %d: members" id;
      if Docset.elements v.Snap.member_set <> Docset.elements e.Snap.member_set then
        fail "node %d: member_set" id;
      if Docset.elements v.Snap.results <> Docset.elements e.Snap.results then
        fail "node %d: results" id)
    expected;
  for i = 0 to Nav_tree.size (Active_tree.nav active) - 1 do
    if Active_tree.component_root_of active i <> Oracle.component_root_of oracle i then
      fail "node %d: component root" i
  done

(* A random antichain of non-root members of [root]'s component. *)
let random_cut rng oracle root =
  let nav = Oracle.nav oracle in
  let candidates = Array.of_list (List.filter (( <> ) root) (Oracle.component oracle root)) in
  Rng.shuffle rng candidates;
  let want = 1 + Rng.int rng 4 in
  Array.fold_left
    (fun acc c ->
      if List.length acc >= want
         || List.exists
              (fun c' -> Nav_tree.in_subtree nav ~root:c c' || Nav_tree.in_subtree nav ~root:c' c)
              acc
      then acc
      else c :: acc)
    [] candidates

let outcome f = match f () with r -> Ok r | exception Invalid_argument _ -> Error ()

(* Scripts of heuristic EXPANDs, random valid cuts, static expands,
   backtracks and arbitrary (often invalid) cuts, applied to the active
   tree of a live navigation and to the reference; after every step the
   captured snapshot equals the reference capture vnode for vnode. *)
let prop_matches_oracle =
  QCheck.Test.make ~name:"snapshot = list-based reference" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 14))
    (fun (seed, steps) ->
      let w = Lazy.force workload in
      let rng = Rng.create seed in
      let q = Rng.choice_list rng w.Q.queries in
      let navigation = Navigation.start (Navigation.bionav ()) q.Q.nav in
      let active = Navigation.active navigation in
      let oracle = Oracle.create q.Q.nav in
      check_same_snapshot 0 navigation oracle;
      for step = 1 to steps do
        let expandable = List.filter (Oracle.is_expandable oracle) (Oracle.visible oracle) in
        (match (Rng.int rng 5, expandable) with
        | 0, (_ :: _ as l) ->
            let root = Rng.choice_list rng l in
            let comp, _ = Oracle.comp_tree oracle root in
            let report = Heuristic.best_cut comp in
            let cut = List.map (Comp_tree.tag comp) report.Heuristic.cut_children in
            Alcotest.(check (list int)) "heuristic reveal"
              (Oracle.apply_cut oracle ~root ~cut_children:cut)
              (Active_tree.apply_cut active ~root ~cut_children:cut)
        | 1, (_ :: _ as l) ->
            let root = Rng.choice_list rng l in
            let cut = random_cut rng oracle root in
            Alcotest.(check (list int)) "random reveal"
              (Oracle.apply_cut oracle ~root ~cut_children:cut)
              (Active_tree.apply_cut active ~root ~cut_children:cut)
        | 2, _ ->
            let root = Rng.choice_list rng (Oracle.visible oracle) in
            Alcotest.(check (list int)) "static reveal"
              (Oracle.expand_static oracle root)
              (Active_tree.expand_static active root)
        | 3, _ ->
            let n = Nav_tree.size q.Q.nav in
            let root = Rng.choice_list rng (Oracle.visible oracle) in
            let cut = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
            let expected = outcome (fun () -> Oracle.apply_cut oracle ~root ~cut_children:cut) in
            let got = outcome (fun () -> Active_tree.apply_cut active ~root ~cut_children:cut) in
            if expected <> got then Alcotest.failf "step %d: cut validity differs" step
        | _ ->
            Alcotest.(check bool) "backtrack" (Oracle.backtrack oracle)
              (Active_tree.backtrack active));
        check_same_snapshot step navigation oracle
      done;
      true)

(* Re-capturing a session that has not changed costs a bounded number of
   minor-heap words per visible node, whatever the tree size: capture
   shares the components' arrays and sets instead of copying them. *)
let test_recapture_allocation () =
  let w = Lazy.force workload in
  let q =
    List.fold_left
      (fun a b -> if Nav_tree.size b.Q.nav > Nav_tree.size a.Q.nav then b else a)
      (List.hd w.Q.queries) w.Q.queries
  in
  let navigation = Navigation.start (Navigation.bionav ()) q.Q.nav in
  let recapture () =
    ignore (Snap.capture ~epoch:0 ~query:"q" navigation : Snap.t);
    let before = Gc.minor_words () in
    let snap = Snap.capture ~epoch:1 ~query:"q" navigation in
    (Gc.minor_words () -. before, Snap.node_count snap)
  in
  let check name =
    let words, visible = recapture () in
    let bound = 200. +. (64. *. float_of_int visible) in
    if words > bound then
      Alcotest.failf "%s: %.0f words for %d visible nodes of %d (bound %.0f)" name words visible
        (Nav_tree.size q.Q.nav) bound
  in
  check "root only";
  ignore (Navigation.expand navigation 0 : int list);
  check "after one EXPAND";
  Alcotest.(check bool) "tree much larger than the bound" true
    (Nav_tree.size q.Q.nav > 300)

let () =
  Alcotest.run "active_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "apply_cut splits" `Quick test_apply_cut_splits;
          Alcotest.test_case "counts shrink" `Quick test_counts_shrink_after_cut;
          Alcotest.test_case "expandable flags" `Quick test_expandable_flags;
          Alcotest.test_case "nested cuts" `Quick test_nested_cuts;
          Alcotest.test_case "level-skipping cuts" `Quick test_cut_skipping_levels;
          Alcotest.test_case "visible parent" `Quick test_visible_parent_embedding;
          Alcotest.test_case "backtrack" `Quick test_backtrack;
          Alcotest.test_case "cut validation" `Quick test_cut_validation;
          Alcotest.test_case "static expand" `Quick test_expand_static;
          Alcotest.test_case "comp tree extraction" `Quick test_comp_tree_extraction;
          Alcotest.test_case "render" `Quick test_render_shows_visible;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_random_cut_sequences;
          QCheck_alcotest.to_alcotest qcheck_heuristic_sessions;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_oracle;
          Alcotest.test_case "re-capture allocation" `Quick test_recapture_allocation;
        ] );
    ]
