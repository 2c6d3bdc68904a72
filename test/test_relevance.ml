open Bionav_util
open Bionav_core

(* Nav tree: root -> {a (selective), b (unselective), c (middling)}. *)
let nav () =
  let h =
    Bionav_mesh.Hierarchy.of_parents
      ~labels:(fun i -> [| "root"; "a"; "b"; "c" |].(i))
      [| -1; 0; 0; 0 |]
  in
  let attachments =
    [
      (1, Docset.of_list (List.init 20 Fun.id));
      (2, Docset.of_list (List.init 20 (fun i -> 100 + i)));
      (3, Docset.of_list (List.init 10 (fun i -> 200 + i)));
    ]
  in
  let totals = function 1 -> 25 | 2 -> 20_000 | 3 -> 50 | _ -> 0 in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:totals

let test_component_weight () =
  let active = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "a" 0.8 (Active_tree.component_weight active 1);
  Alcotest.(check (float 1e-9)) "b" 0.001 (Active_tree.component_weight active 2);
  Alcotest.(check (float 1e-9)) "c" 0.2 (Active_tree.component_weight active 3)

let test_weight_sums_over_component () =
  let active = Active_tree.create (nav ()) in
  (* Root component holds all four nodes. *)
  let expected = 0.8 +. 0.001 +. 0.2 in
  Alcotest.(check (float 1e-9)) "summed" expected (Active_tree.component_weight active 0)

let test_rank_visible () =
  let active = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1; 2; 3 ]);
  Alcotest.(check (list int)) "selectivity order" [ 1; 3; 2 ]
    (Relevance.rank_visible active [ 1; 2; 3 ])

let test_ranked_children () =
  let active = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 2; 3 ]);
  (* Visible children of the root are 2 and 3; c outranks b. *)
  Alcotest.(check (list int)) "ranked" [ 3; 2 ] (Relevance.ranked_children active 0)

let test_render_ranked_order () =
  let active = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1; 2; 3 ]);
  let out = Relevance.render_ranked active in
  let index_of sub =
    let rec go i =
      if i + String.length sub > String.length out then -1
      else if String.sub out i (String.length sub) = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "a before c before b" true
    (index_of "a (" < index_of "c (" && index_of "c (" < index_of "b (")

let test_rejects_invisible () =
  let active = Active_tree.create (nav ()) in
  Alcotest.(check bool) "invisible node" true
    (try
       ignore (Active_tree.component_weight active 2);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "relevance"
    [
      ( "unit",
        [
          Alcotest.test_case "component weight" `Quick test_component_weight;
          Alcotest.test_case "weight sums" `Quick test_weight_sums_over_component;
          Alcotest.test_case "rank visible" `Quick test_rank_visible;
          Alcotest.test_case "ranked children" `Quick test_ranked_children;
          Alcotest.test_case "render order" `Quick test_render_ranked_order;
          Alcotest.test_case "rejects invisible" `Quick test_rejects_invisible;
        ] );
    ]
