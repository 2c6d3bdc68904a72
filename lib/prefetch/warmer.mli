(** Warm starts: precompute the first-contact state of the workload's top
    queries and carry it across restarts.

    The expensive steps of a fresh query are the result fetch + navigation
    tree construction (paper §VII) and the first root EdgeCut. {!build}
    runs both for a caller-supplied query list (typically the head of a
    Zipf-ranked workload — the caller picks, this layer has no workload
    dependency) and returns {!Bionav_store.Snapshot.entry} values ready
    for {!Bionav_store.Snapshot.save}. {!apply} replays a snapshot into a
    live engine's caches: navigation trees into the {!Bionav_core.Nav_cache}
    (rebuilding each tree from the stored result set, skipping the query),
    root cuts into the {!Plan_cache} keyed exactly as a fresh session's
    first EXPAND will ask for them. *)

val build :
  db:Bionav_store.Database.t ->
  run:(string -> Bionav_util.Docset.t) ->
  ?k:int ->
  ?model:Bionav_core.Probability.model ->
  trees:Bionav_core.Nav_cache.t ->
  ?plans:Plan_cache.t ->
  string list ->
  Bionav_store.Snapshot.entry list
(** [run] executes a query (e.g. an [Eutils.esearch] closure). Queries are
    normalized and deduplicated; order is preserved. [k]/[model] default
    to the paper's Heuristic settings and must match the strategy the
    serving engine will use, or warmed root cuts will never be asked for
    byte-identically. The root cut is computed by driving one EXPAND
    through {!Bionav_core.Navigation} itself, so it is identical to live
    behaviour by construction (empty for single-node trees). Each tree it
    built goes into [trees], and its root cut into [plans] when given, as
    {!apply} would put them — so the tree is not built a second time. *)

val apply :
  db:Bionav_store.Database.t ->
  trees:Bionav_core.Nav_cache.t ->
  ?plans:Plan_cache.t ->
  ?model:Bionav_core.Probability.model ->
  Bionav_store.Snapshot.entry list ->
  int
(** Seed the caches from snapshot entries; returns how many queries were
    warmed. Root cuts are stored under [model]'s fingerprint (default the
    static paper model) — pass the serving engine's model or sessions
    will never be offered the warmed plans. Root cuts are skipped when
    [plans] is absent (prefetch disabled — trees alone are still worth
    warming). Safe to call on a
    warm engine — entries replace. *)
