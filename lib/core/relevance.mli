(** Relevance ranking of revealed concepts.

    "The concepts are ranked by their relevance to the user query" (paper
    §I, describing the BioNav interface). The natural relevance signal the
    system already computes is the EXPLORE mass: the query selectivity
    [Σ |L(n)| / |LT(n)|] of a visible node's component, normalized over the
    nodes being ranked. This module orders visible nodes (or arbitrary
    components) by that signal for display purposes — it does not affect
    the EdgeCut choice, which already optimizes over the same quantities.
    The raw mass of one component is {!Active_tree.component_weight}. *)

val rank_visible : Active_tree.t -> int list -> int list
(** Order visible nodes by descending component weight (ties by ascending
    node id). *)

val ranked_children : Active_tree.t -> int -> int list
(** The visible children (in the Definition 5 embedding) of a visible node,
    relevance-ranked — what one row of the interface displays. *)

val render_ranked : Active_tree.t -> string
(** The Definition 5 visualization with each sibling group ordered by
    relevance instead of hierarchy order. *)
