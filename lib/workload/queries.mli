(** The evaluation workload (paper Table I).

    The paper evaluates on 10 real PubMed queries chosen with biomedical
    collaborators, each paired with a "target concept" a researcher would
    navigate to. We reproduce the workload's {e statistical shape} on the
    synthetic corpus: each query has a query concept whose label token is
    the search keyword (so the result size is controlled by forcing that
    many citations to carry the concept as a major topic), and a target
    concept selected {e post hoc} from the query's navigation tree to match
    the paper's target characteristics — hierarchy depth, attached-count
    fraction [L(target)/|result|], and a hierarchically unrelated position
    (the paper's targets, e.g. "Histones" for "prothymosin", are not
    ancestors or descendants of the query concept). *)

type spec = {
  name : string;
      (** The paper's query keyword — also used verbatim as the free-text
          tag planted in the seeded citations, so the search for it is the
          literal paper query. *)
  target_name : string;  (** The paper's target concept, for labelling. *)
  result_size : int;  (** Intended citation count of the query result. *)
  n_lines : int;  (** Number of research-line concepts (prothymosin: 4). *)
  target_depth : int;  (** Hierarchy depth of the target concept. *)
  target_frac : float;  (** Desired [L(target) / result_size]. *)
}

val paper_specs : spec list
(** The 10 Table I rows. Result sizes span ~110-713 citations, target
    depths 2-7, target fractions 0.06-0.5 — shaped after the paper's
    workload ("ice nucleation" pairs a large result with a shallow,
    low-selectivity target; "prothymosin" has the multi-topic literature). *)

type query = {
  spec : spec;
  keyword : string;  (** The string actually searched (AND over tokens). *)
  cluster : int list;  (** The query's research-line concepts. *)
  result : Bionav_util.Docset.t;
  nav : Bionav_core.Nav_tree.t;
  target_concept : int;  (** Hierarchy id of the chosen target. *)
  target_node : int;  (** The target's navigation-tree node. *)
  target_mesh_depth : int;  (** Hierarchy depth of the target concept. *)
}

type t = {
  hierarchy : Bionav_mesh.Hierarchy.t;
  medline : Bionav_corpus.Medline.t;
  database : Bionav_store.Database.t;
  eutils : Bionav_search.Eutils.t;
  queries : query list;
}

type config = {
  hierarchy_params : Bionav_mesh.Synthetic.params;
  n_citations : int;
  annotator_params : Bionav_corpus.Annotator.params;
  organic_mult : int;
      (** Untagged citations planted per tagged one, giving the research-line
          concepts corpus mass beyond the query result (keeps selectivities
          realistic). *)
  specs : spec list;
}

val default_config : config
(** Full scale: 48k concepts, 60k citations, the 10 paper specs. Building
    takes a few seconds. *)

val small_config : config
(** Test scale: ~6k concepts, 4k citations, 3 queries with scaled-down
    result sizes. *)

val build : ?config:config -> seed:int -> unit -> t
(** Deterministic in [seed]. @raise Failure if a target matching a spec
    cannot be found even after relaxation (does not happen for the shipped
    configurations). *)

val resolve_target : t -> query:string -> string -> int option
(** [resolve_target t ~query label] is the concept a user means by
    [label] when navigating the results of [query]: the concept with
    exactly that label if there is one, else — when [query] is a Table I
    query (compared trimmed, case-insensitively) and [label] its spec's
    [target_name] — the target chosen for it ({!query.target_concept}).
    The synthetic hierarchy's labels differ from the paper's names, so
    the second case is how a Table I target is reached by name. *)

(* Table I columns, per query: *)

val result_count : query -> int
val tree_size : query -> int
(** Navigation-tree nodes, root excluded (the paper counts concept nodes
    with results). *)

val max_width : query -> int
val tree_height : query -> int
val citations_with_duplicates : query -> int
val target_level : query -> int
val target_l : query -> int
val target_lt : query -> int
