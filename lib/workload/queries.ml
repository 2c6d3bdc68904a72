open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Synthetic = Bionav_mesh.Synthetic
module Annotator = Bionav_corpus.Annotator
module Generator = Bionav_corpus.Generator
module Medline = Bionav_corpus.Medline
module Database = Bionav_store.Database
module Eutils = Bionav_search.Eutils
module Nav_tree = Bionav_core.Nav_tree

type spec = {
  name : string;
  target_name : string;
  result_size : int;
  n_lines : int;
  target_depth : int;
  target_frac : float;
}

let paper_specs =
  [
    { name = "LbetaT2"; target_name = "Mice, Transgenic"; result_size = 110;
      n_lines = 3; target_depth = 3; target_frac = 0.50 };
    { name = "melibiose permease"; target_name = "Substrate Specificity"; result_size = 134;
      n_lines = 3; target_depth = 3; target_frac = 0.35 };
    { name = "varenicline"; target_name = "Nicotinic Agonists"; result_size = 148;
      n_lines = 2; target_depth = 4; target_frac = 0.40 };
    { name = "Na+/I- symporter"; target_name = "Perchloric Acid"; result_size = 166;
      n_lines = 3; target_depth = 5; target_frac = 0.15 };
    { name = "prothymosin"; target_name = "Histones"; result_size = 313;
      n_lines = 4; target_depth = 5; target_frac = 0.13 };
    { name = "ice nucleation"; target_name = "Plants, Genetically Modified"; result_size = 357;
      n_lines = 3; target_depth = 2; target_frac = 0.06 };
    { name = "vardenafil"; target_name = "Phosphodiesterase Inhibitors"; result_size = 486;
      n_lines = 2; target_depth = 4; target_frac = 0.45 };
    { name = "dyslexia genetics"; target_name = "Polymorphism, Single Nucleotide";
      result_size = 545; n_lines = 3; target_depth = 4; target_frac = 0.30 };
    { name = "syntaxin 1A"; target_name = "GABA Plasma Membrane Transport Protein";
      result_size = 666; n_lines = 4; target_depth = 6; target_frac = 0.10 };
    { name = "follistatin"; target_name = "Follicle Stimulating Hormone"; result_size = 713;
      n_lines = 3; target_depth = 5; target_frac = 0.25 };
  ]

type query = {
  spec : spec;
  keyword : string;
  cluster : int list;
  result : Docset.t;
  nav : Nav_tree.t;
  target_concept : int;
  target_node : int;
  target_mesh_depth : int;
}

type t = {
  hierarchy : Hierarchy.t;
  medline : Medline.t;
  database : Database.t;
  eutils : Eutils.t;
  queries : query list;
}

type config = {
  hierarchy_params : Synthetic.params;
  n_citations : int;
  annotator_params : Annotator.params;
  organic_mult : int;
      (** Untagged citations planted per tagged one, giving the research-line
          concepts corpus mass beyond the query result (keeps selectivities
          realistic). *)
  specs : spec list;
}

let default_config =
  {
    hierarchy_params = Synthetic.default_params;
    n_citations = 60_000;
    annotator_params = Annotator.default_params;
    organic_mult = 3;
    specs = paper_specs;
  }

let small_config =
  {
    hierarchy_params = { Synthetic.default_params with target_size = 6_000; max_depth = 9;
                         top_fanout = 40 };
    n_citations = 4_000;
    annotator_params = Annotator.light_params;
    organic_mult = 3;
    specs =
      [
        { name = "prothymosin"; target_name = "Histones"; result_size = 120;
          n_lines = 3; target_depth = 4; target_frac = 0.15 };
        { name = "vardenafil"; target_name = "Phosphodiesterase Inhibitors"; result_size = 80;
          n_lines = 2; target_depth = 3; target_frac = 0.40 };
        { name = "ice nucleation"; target_name = "Plants, Genetically Modified";
          result_size = 150; n_lines = 3; target_depth = 2; target_frac = 0.08 };
      ];
  }

(* Research-line concepts are specific: depth 4-7 (clamped to the hierarchy's
   height). Each query's lines are pairwise distinct across the workload. *)
let pick_clusters rng hierarchy specs =
  let height = Hierarchy.height hierarchy in
  let lo = min 4 (max 2 (height - 2)) and hi = min 7 (max 3 height) in
  let eligible =
    List.filter
      (fun c ->
        let d = Hierarchy.depth hierarchy c in
        d >= lo && d <= hi)
      (List.init (Hierarchy.size hierarchy) Fun.id)
  in
  let needed = List.fold_left (fun acc s -> acc + s.n_lines) 0 specs in
  if List.length eligible < needed then
    failwith "Queries.build: hierarchy too small for the requested workload";
  let pool = Array.of_list eligible in
  Rng.shuffle rng pool;
  let next = ref 0 in
  List.map
    (fun spec ->
      let cluster = List.init spec.n_lines (fun i -> pool.(!next + i)) in
      next := !next + spec.n_lines;
      cluster)
    specs

(* Post-hoc target choice: a navigation node at the requested depth with
   L(n) closest to the requested fraction of the result size, hierarchically
   unrelated to the query's research lines. Depth is relaxed outward
   (±1, ±2, ...) if no candidate exists at the exact level. *)
let choose_target hierarchy nav ~cluster ~spec =
  let desired = spec.target_frac *. float_of_int (Nav_tree.distinct_results nav) in
  let unrelated node =
    let c = Nav_tree.concept_id nav node in
    List.for_all
      (fun line ->
        c <> line
        && (not (Hierarchy.is_ancestor hierarchy c line))
        && not (Hierarchy.is_ancestor hierarchy line c))
      cluster
  in
  let candidates_at depth =
    let acc = ref [] in
    for node = Nav_tree.size nav - 1 downto 1 do
      if
        Hierarchy.depth hierarchy (Nav_tree.concept_id nav node) = depth
        && Nav_tree.result_count nav node > 0
        && unrelated node
      then acc := node :: !acc
    done;
    !acc
  in
  let score node = Float.abs (float_of_int (Nav_tree.result_count nav node) -. desired) in
  let best_of = function
    | [] -> None
    | nodes ->
        Some (List.fold_left (fun b n -> if score n < score b then n else b) (List.hd nodes) nodes)
  in
  let rec relax delta =
    if delta > 6 then failwith ("Queries.build: no target candidate for " ^ spec.name)
    else
      let at_depths =
        List.concat_map candidates_at
          (List.sort_uniq Int.compare
             [ spec.target_depth - delta; spec.target_depth + delta ])
      in
      match best_of at_depths with Some n -> n | None -> relax (delta + 1)
  in
  relax 0

let build ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let hierarchy = Synthetic.generate ~params:config.hierarchy_params ~seed:(seed * 7 + 1) () in
  let clusters = pick_clusters (Rng.split rng) hierarchy config.specs in
  let seeded_groups =
    List.concat
      (List.map2
         (fun spec cluster ->
           [
             {
               Generator.tag = Some spec.name;
               cluster;
               count = spec.result_size;
               topics_per_citation = (1, 2);
             };
             {
               Generator.tag = None;
               cluster;
               count = spec.result_size * config.organic_mult;
               topics_per_citation = (1, 2);
             };
           ])
         config.specs clusters)
  in
  let gen_params =
    {
      Generator.default_params with
      n_citations = config.n_citations;
      annotator_params = config.annotator_params;
      seeded_groups;
    }
  in
  let medline = Generator.generate ~params:gen_params ~seed:(seed * 13 + 2) hierarchy in
  let database = Database.of_medline medline in
  let eutils = Eutils.create medline in
  let queries =
    List.map2
      (fun spec cluster ->
        let keyword = spec.name in
        let result = Eutils.esearch eutils keyword in
        if Docset.is_empty result then
          failwith (Printf.sprintf "Queries.build: empty result for %s" spec.name);
        let nav = Nav_tree.of_database database result in
        let target_node = choose_target hierarchy nav ~cluster ~spec in
        let target_concept = Nav_tree.concept_id nav target_node in
        {
          spec;
          keyword;
          cluster;
          result;
          nav;
          target_concept;
          target_node;
          target_mesh_depth = Hierarchy.depth hierarchy target_concept;
        })
      config.specs clusters
  in
  { hierarchy; medline; database; eutils; queries }

let resolve_target t ~query label =
  match Hierarchy.find_by_label t.hierarchy label with
  | Some concept -> Some concept
  | None ->
      let norm s = String.lowercase_ascii (String.trim s) in
      List.find_map
        (fun q ->
          if norm q.keyword = norm query && norm q.spec.target_name = norm label then
            Some q.target_concept
          else None)
        t.queries

let result_count q = Docset.cardinal q.result
let tree_size q = Nav_tree.size q.nav - 1
let max_width q = Nav_tree.max_width q.nav
let tree_height q = Nav_tree.height q.nav
let citations_with_duplicates q = Nav_tree.total_attached q.nav
let target_level q = q.target_mesh_depth
let target_l q = Nav_tree.result_count q.nav q.target_node
let target_lt q = Nav_tree.total q.nav q.target_node
