open Bionav_util
open Bionav_core

(* Deep-ish nav tree with enough citations to keep P_x positive. *)
let nav () =
  let parent = [| -1; 0; 1; 1; 0; 4; 4; 2 |] in
  let labels = [| "MeSH"; "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  let h = Bionav_mesh.Hierarchy.of_parents ~labels:(fun i -> labels.(i)) parent in
  let attachments =
    List.init 7 (fun i ->
        let node = i + 1 in
        (node, Docset.of_list (List.init 12 (fun j -> (node * 10) + j))))
  in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 500)

let test_static_expand_reveals_children () =
  let s = Navigation.start Navigation.Static (nav ()) in
  let revealed = Navigation.expand s 0 in
  (* Navigation ids are preorder: root children h1 and h4 become 1 and 5. *)
  Alcotest.(check (list int)) "root children" [ 1; 5 ] revealed;
  let stats = Navigation.stats s in
  Alcotest.(check int) "one expand" 1 stats.Navigation.expands;
  Alcotest.(check int) "two revealed" 2 stats.Navigation.revealed

let test_cost_accounting () =
  let s = Navigation.start Navigation.Static (nav ()) in
  ignore (Navigation.expand s 0);
  ignore (Navigation.expand s 1);
  let stats = Navigation.stats s in
  Alcotest.(check int) "expands" 2 stats.Navigation.expands;
  Alcotest.(check int) "revealed" 4 stats.Navigation.revealed;
  Alcotest.(check int) "navigation cost" 6 (Navigation.navigation_cost stats);
  let results = Navigation.show_results s 2 in
  Alcotest.(check int) "listed" (Docset.cardinal results)
    (Navigation.stats s).Navigation.results_listed;
  Alcotest.(check int) "total cost" (6 + Docset.cardinal results)
    (Navigation.total_cost (Navigation.stats s))

let test_expand_on_leaf_component_is_noop () =
  let s = Navigation.start Navigation.Static (nav ()) in
  ignore (Navigation.expand s 0);
  ignore (Navigation.expand s 1);
  ignore (Navigation.expand s 2);
  (* Node 7 ("g") is now a singleton component. *)
  Alcotest.(check (list int)) "noop" [] (Navigation.expand s 7);
  Alcotest.(check int) "not charged" 3 (Navigation.stats s).Navigation.expands

let test_heuristic_expand_valid () =
  let s = Navigation.start (Navigation.bionav ()) (nav ()) in
  let revealed = Navigation.expand s 0 in
  Alcotest.(check bool) "reveals something" true (revealed <> []);
  let active = Navigation.active s in
  List.iter
    (fun v -> Alcotest.(check bool) "revealed nodes visible" true (Active_tree.is_visible active v))
    revealed;
  let record = List.hd (Navigation.stats s).Navigation.history in
  Alcotest.(check int) "record node" 0 record.Navigation.node;
  Alcotest.(check int) "record count" (List.length revealed) record.Navigation.n_revealed;
  Alcotest.(check bool) "reduced size recorded" true (record.Navigation.reduced_size >= 1)

let test_optimal_strategy_small_tree () =
  let s =
    Navigation.start (Navigation.optimal ()) (nav ())
  in
  let revealed = Navigation.expand s 0 in
  Alcotest.(check bool) "reveals" true (revealed <> []);
  let record = List.hd (Navigation.stats s).Navigation.history in
  Alcotest.(check int) "reduced size = component" 8 record.Navigation.reduced_size

let test_heuristic_session_until_exhaustion () =
  (* Expanding everything expandable must terminate with all nodes visible. *)
  let s = Navigation.start (Navigation.bionav ()) (nav ()) in
  let active = Navigation.active s in
  let rec loop guard =
    if guard = 0 then Alcotest.fail "did not converge";
    match List.filter (Active_tree.is_expandable active) (Active_tree.visible active) with
    | [] -> ()
    | r :: _ ->
        let revealed = Navigation.expand s r in
        if revealed = [] then Alcotest.fail "expandable component revealed nothing";
        loop (guard - 1)
  in
  loop 100;
  Alcotest.(check int) "everything revealed" 8 (List.length (Active_tree.visible active))

let test_backtrack_via_session () =
  let s = Navigation.start Navigation.Static (nav ()) in
  ignore (Navigation.expand s 0);
  Alcotest.(check bool) "undone" true (Navigation.backtrack s);
  Alcotest.(check (list int)) "root only" [ 0 ]
    (Active_tree.visible (Navigation.active s));
  Alcotest.(check bool) "empty history exhausted" false
    (Navigation.backtrack s && Navigation.backtrack s)

let test_static_paged_pages () =
  let s = Navigation.start (Navigation.Static_paged { page_size = 1 }) (nav ()) in
  (* Root has two children: two "pages" of one, then nothing more. *)
  let page1 = Navigation.expand s 0 in
  Alcotest.(check int) "first page" 1 (List.length page1);
  let page2 = Navigation.expand s 0 in
  Alcotest.(check int) "second page (the more button)" 1 (List.length page2);
  Alcotest.(check (list int)) "exhausted" [] (Navigation.expand s 0);
  Alcotest.(check int) "two charged expands" 2 (Navigation.stats s).Navigation.expands;
  (* Highest-count child first: h1's subtree holds 4 concepts (48 distinct
     citations) vs h4's 3 (36), so page 1 must be node 1. *)
  Alcotest.(check (list int)) "count-ranked" [ 1 ] page1

let test_static_paged_large_page_equals_static () =
  let paged = Navigation.start (Navigation.Static_paged { page_size = 100 }) (nav ()) in
  let plain = Navigation.start Navigation.Static (nav ()) in
  let a = Navigation.expand paged 0 and b = Navigation.expand plain 0 in
  Alcotest.(check (list int)) "same reveal set" (List.sort Int.compare b)
    (List.sort Int.compare a)

let test_bionav_constructor_defaults () =
  match Navigation.bionav () with
  | Navigation.Heuristic { k; model; reuse } ->
      Alcotest.(check int) "k" Heuristic.default_k k;
      Alcotest.(check int) "thresholds" 50
        model.Probability.params.Probability.upper_threshold;
      Alcotest.(check string) "static fingerprint" Probability.default_model.Probability.fingerprint
        model.Probability.fingerprint;
      Alcotest.(check bool) "reuse off by default" false reuse
  | Navigation.Faceted _ | Navigation.Optimal _ | Navigation.Static | Navigation.Static_paged _
    ->
      Alcotest.fail "wrong strategy"

let test_reuse_matches_fresh_for_upper_chain () =
  (* Repeatedly expanding the root's upper component must reveal the same
     concepts in the same order with and without plan reuse (the reduced
     tree's masks encode exactly the fresh upper components as long as only
     the upper subtree is expanded). *)
  let run reuse =
    let s = Navigation.start (Navigation.bionav ~reuse ()) (nav ()) in
    let acc = ref [] in
    let rec loop guard =
      if guard > 0 then begin
        let revealed = Navigation.expand s 0 in
        if revealed <> [] then begin
          acc := revealed :: !acc;
          loop (guard - 1)
        end
      end
    in
    loop 20;
    List.rev !acc
  in
  Alcotest.(check (list (list int))) "same reveal sequence" (run false) (run true)

let test_reuse_session_consistency () =
  (* A full reuse-enabled session keeps active-tree invariants: components
     always partition the nodes. *)
  let s = Navigation.start (Navigation.bionav ~reuse:true ()) (nav ()) in
  let active = Navigation.active s in
  let rec loop guard =
    if guard = 0 then Alcotest.fail "did not converge";
    match List.filter (Active_tree.is_expandable active) (Active_tree.visible active) with
    | [] -> ()
    | r :: _ ->
        ignore (Navigation.expand s r);
        let all =
          List.concat_map
            (fun r -> Array.to_list (Active_tree.component active r))
            (Active_tree.visible active)
        in
        Alcotest.(check (list int)) "partition invariant" (List.init 8 Fun.id)
          (List.sort Int.compare all);
        loop (guard - 1)
  in
  loop 100

let () =
  Alcotest.run "navigation"
    [
      ( "unit",
        [
          Alcotest.test_case "static reveals children" `Quick test_static_expand_reveals_children;
          Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
          Alcotest.test_case "leaf expand noop" `Quick test_expand_on_leaf_component_is_noop;
          Alcotest.test_case "heuristic expand valid" `Quick test_heuristic_expand_valid;
          Alcotest.test_case "optimal strategy" `Quick test_optimal_strategy_small_tree;
          Alcotest.test_case "session exhaustion" `Quick test_heuristic_session_until_exhaustion;
          Alcotest.test_case "backtrack" `Quick test_backtrack_via_session;
          Alcotest.test_case "reuse matches fresh" `Quick test_reuse_matches_fresh_for_upper_chain;
          Alcotest.test_case "reuse session consistency" `Quick test_reuse_session_consistency;
          Alcotest.test_case "static paged pages" `Quick test_static_paged_pages;
          Alcotest.test_case "paged = static at large page" `Quick
            test_static_paged_large_page_equals_static;
          Alcotest.test_case "bionav defaults" `Quick test_bionav_constructor_defaults;
        ] );
    ]
