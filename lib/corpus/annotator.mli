(** The concept-annotation model: which MeSH concepts a citation is
    associated with.

    Paper §VII infers associations by querying PubMed once per concept
    (~90 concepts per citation on average, a superset of the ~20 explicit
    MEDLINE annotations). We reproduce the *statistical structure* of those
    associations, which is what the navigation cost model consumes:

    - {b topical core}: each citation has 1-3 major topics; the citation is
      associated with each topic and all of its ancestors (a deep concept
      therefore contributes a whole root-to-concept chain — the source of
      duplicate citations across sibling subtrees);
    - {b related spread}: a few siblings/nearby concepts of each topic join
      with moderate probability (research papers touch neighbouring
      concepts);
    - {b background check tags}: shallow, extremely common concepts
      ("Humans"-like) drawn depth-biased toward the top of the hierarchy.

    The expected association-set size is a parameter; the paper-calibrated
    default targets ≈90. *)

type params = {
  related_per_topic : float;  (** Mean number of related concepts per topic. *)
  background_mean : float;  (** Mean number of background concepts. *)
  background_depth_decay : float;
    (** P(depth d) ∝ decay^d for background concepts; < 1 biases shallow. *)
}

val default_params : params
(** Calibrated so that, on a MeSH-sized hierarchy, the mean association-set
    size is ≈90 (ancestors included). *)

val light_params : params
(** Smaller sets (≈25) for fast tests on small hierarchies. *)

type t

val create :
  ?params:params -> Bionav_mesh.Hierarchy.t -> Bionav_util.Rng.t -> t
(** Precomputes the depth-biased background sampler. The annotator holds
    mutable scratch space for {!annotate}: use one per domain. *)

val annotate : t -> major_topics:int list -> Bionav_util.Intset.t
(** The full association set for a citation with the given major topics.
    Always contains every major topic and each of its strict ancestors
    except the hierarchy root (the root is implicit). *)

val draw_background : t -> int
(** Expose one background concept draw (for calibration tests). *)
