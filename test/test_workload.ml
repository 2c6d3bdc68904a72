open Bionav_core
module Q = Bionav_workload.Queries
module E = Bionav_workload.Experiment
module R = Bionav_workload.Report
module H = Bionav_mesh.Hierarchy

let workload = lazy (Q.build ~config:Q.small_config ~seed:81 ())

let runs = lazy (E.run_all (Lazy.force workload))

let test_builds_all_queries () =
  let w = Lazy.force workload in
  Alcotest.(check int) "query count" (List.length Q.small_config.Q.specs)
    (List.length w.Q.queries)

let test_result_sizes_near_spec () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      let spec = q.Q.spec in
      let n = Q.result_count q in
      (* Tag retrieval may pick up a handful of extra citations, never fewer. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d vs %d" spec.Q.name n spec.Q.result_size)
        true
        (n >= spec.Q.result_size && n <= spec.Q.result_size + (spec.Q.result_size / 5)))
    w.Q.queries

let test_targets_are_valid_nodes () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      let nav = q.Q.nav in
      Alcotest.(check bool) "in range" true
        (q.Q.target_node > 0 && q.Q.target_node < Nav_tree.size nav);
      Alcotest.(check bool) "has results" true (Nav_tree.result_count nav q.Q.target_node > 0);
      Alcotest.(check int) "concept consistent" q.Q.target_concept
        (Nav_tree.concept_id nav q.Q.target_node))
    w.Q.queries

let test_targets_unrelated_to_cluster () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      List.iter
        (fun line ->
          Alcotest.(check bool) "not a line concept" true (q.Q.target_concept <> line);
          Alcotest.(check bool) "not an ancestor" false
            (H.is_ancestor w.Q.hierarchy q.Q.target_concept line);
          Alcotest.(check bool) "not a descendant" false
            (H.is_ancestor w.Q.hierarchy line q.Q.target_concept))
        q.Q.cluster)
    w.Q.queries

let test_table1_columns () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      Alcotest.(check bool) "tree smaller than hierarchy" true
        (Q.tree_size q < H.size w.Q.hierarchy);
      Alcotest.(check bool) "duplicates exceed distinct" true
        (Q.citations_with_duplicates q > Q.result_count q);
      Alcotest.(check bool) "LT >= L" true (Q.target_lt q >= Q.target_l q);
      Alcotest.(check bool) "height positive" true (Q.tree_height q > 0);
      Alcotest.(check bool) "width positive" true (Q.max_width q > 0))
    w.Q.queries

let test_deterministic_build () =
  let a = Q.build ~config:Q.small_config ~seed:99 () in
  let b = Q.build ~config:Q.small_config ~seed:99 () in
  List.iter2
    (fun qa qb ->
      Alcotest.(check int) "same results" (Q.result_count qa) (Q.result_count qb);
      Alcotest.(check int) "same target" qa.Q.target_concept qb.Q.target_concept)
    a.Q.queries b.Q.queries

let test_runs_complete () =
  let rs = Lazy.force runs in
  List.iter
    (fun r ->
      Alcotest.(check bool) "static positive" true
        (r.E.static.Simulate.navigation_cost > 0);
      Alcotest.(check bool) "bionav positive" true
        (r.E.bionav.Simulate.navigation_cost > 0))
    rs

let test_bionav_wins_on_average () =
  let rs = Lazy.force runs in
  Alcotest.(check bool) "average improvement positive" true (E.average_improvement rs > 0.)

let test_improvement_formula () =
  let rs = Lazy.force runs in
  let r = List.hd rs in
  let expected =
    1.
    -. float_of_int r.E.bionav.Simulate.navigation_cost
       /. float_of_int r.E.static.Simulate.navigation_cost
  in
  Alcotest.(check (float 1e-9)) "formula" expected (E.improvement r)

let test_mean_expand_ms () =
  let rs = Lazy.force runs in
  List.iter
    (fun r -> Alcotest.(check bool) "non-negative" true (E.mean_expand_ms r.E.bionav >= 0.))
    rs

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_reports_render () =
  let w = Lazy.force workload in
  let rs = Lazy.force runs in
  let t1 = R.table1 w in
  Alcotest.(check bool) "table1 mentions queries" true (contains ~sub:"prothymosin" t1);
  let f8 = R.fig8 rs in
  Alcotest.(check bool) "fig8 improvement line" true (contains ~sub:"Average improvement" f8);
  let f9 = R.fig9 rs in
  Alcotest.(check bool) "fig9 header" true (contains ~sub:"EXPAND" f9);
  let f10 = R.fig10 rs in
  Alcotest.(check bool) "fig10 header" true (contains ~sub:"execution time" f10);
  let f11 = R.fig11 (List.hd rs) in
  Alcotest.(check bool) "fig11 partitions" true (contains ~sub:"partitions" f11)

let test_csv_exports () =
  let w = Lazy.force workload in
  let rs = Lazy.force runs in
  let t1 = R.table1_csv w in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' t1) in
  Alcotest.(check int) "header + one row per query" (1 + List.length w.Q.queries)
    (List.length lines);
  Alcotest.(check bool) "header first" true (contains ~sub:"query,results" (List.hd lines));
  let f8 = R.fig8_csv rs in
  Alcotest.(check bool) "fig8 columns" true (contains ~sub:"static_cost,bionav_cost" f8);
  let f11 = R.fig11_csv (List.hd rs) in
  Alcotest.(check bool) "fig11 columns" true (contains ~sub:"step,partitions" f11);
  (* Quoting: a label with a comma must be quoted somewhere in table1. *)
  List.iter
    (fun q ->
      let name = q.Q.spec.Q.target_name in
      if String.contains name ',' then
        Alcotest.(check bool) "quoted label" true (contains ~sub:("\"" ^ name ^ "\"") t1))
    w.Q.queries

(* [navigate <query> --auto "<Table I target>"]: the paper's target name
   resolves to the chosen target concept, which the oracle then reaches.
   Seed 11 is the CLI's default corpus. *)
let test_resolve_table1_targets () =
  List.iter
    (fun w ->
      List.iter
        (fun q ->
          let name = q.Q.spec.Q.target_name in
          match Q.resolve_target w ~query:(String.uppercase_ascii q.Q.keyword) name with
          | None -> Alcotest.failf "%s: target %S unresolved" q.Q.keyword name
          | Some concept ->
              Alcotest.(check int) (name ^ ": concept") q.Q.target_concept concept;
              let target =
                match Nav_tree.node_of_concept q.Q.nav concept with
                | Some node -> node
                | None -> Alcotest.failf "%s: target holds no results" name
              in
              let session = Navigation.start (Navigation.bionav ()) q.Q.nav in
              let o = Simulate.to_target session ~target in
              Alcotest.(check bool) (name ^ ": reached") true (o.Simulate.expands > 0))
        w.Q.queries)
    [ Lazy.force workload; Q.build ~config:Q.small_config ~seed:11 () ];
  let w = Lazy.force workload in
  let q = List.hd w.Q.queries in
  let label = H.label w.Q.hierarchy q.Q.target_concept in
  Alcotest.(check (option int)) "exact label first" (H.find_by_label w.Q.hierarchy label)
    (Q.resolve_target w ~query:q.Q.keyword label);
  Alcotest.(check (option int)) "another query's target name" None
    (Q.resolve_target w ~query:"no such query" q.Q.spec.Q.target_name)

let () =
  Alcotest.run "workload"
    [
      ( "queries",
        [
          Alcotest.test_case "builds all" `Quick test_builds_all_queries;
          Alcotest.test_case "result sizes" `Quick test_result_sizes_near_spec;
          Alcotest.test_case "targets valid" `Quick test_targets_are_valid_nodes;
          Alcotest.test_case "targets unrelated" `Quick test_targets_unrelated_to_cluster;
          Alcotest.test_case "table1 columns" `Quick test_table1_columns;
          Alcotest.test_case "deterministic" `Quick test_deterministic_build;
          Alcotest.test_case "resolve Table I targets" `Quick test_resolve_table1_targets;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "runs complete" `Quick test_runs_complete;
          Alcotest.test_case "bionav wins on average" `Quick test_bionav_wins_on_average;
          Alcotest.test_case "improvement formula" `Quick test_improvement_formula;
          Alcotest.test_case "mean expand ms" `Quick test_mean_expand_ms;
        ] );
      ( "reports",
        [
          Alcotest.test_case "render" `Quick test_reports_render;
          Alcotest.test_case "csv exports" `Quick test_csv_exports;
        ] );
    ]
