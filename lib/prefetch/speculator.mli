(** Speculative plan precomputation: guess the user's next EXPAND, compute
    its cut before they ask.

    After each effective EXPAND, the newly revealed nodes are ranked by
    the cost model's own signals — a component's selectivity mass (the
    EXPLORE numerator of §IV) times its EXPAND probability — and the top-m
    expandable candidates are queued. Work happens only inside {!tick},
    a cooperative, budget-bounded drain of the FIFO queue: one job is one
    Heuristic-ReducedOpt run, results land in the shared {!Plan_cache}.
    No threads, no wall clock — callers decide when and how much to
    compute, which keeps speculation off the foreground path and makes
    tests deterministic.

    Jobs capture the component (query, root, exact member list) at
    enqueue time, so a job executed after the session moved on still
    memoizes a correct, correctly keyed plan — including the probability
    model's fingerprint, so plans speculated under a superseded learned
    model are never served to a refreshed session. Instrumented with
    [bionav_prefetch_queue_depth], [bionav_prefetch_speculations_total],
    [bionav_prefetch_dropped_total] and
    [bionav_prefetch_precompute_latency_ms].

    One speculator serves every domain of the engine. Its queue, holder
    counts and counters sit behind an internal leaf lock; {!tick} runs each
    job's cut computation outside it. *)

type t

val create :
  ?top_m:int ->
  ?max_queue:int ->
  ?clock:Bionav_resilience.Clock.t ->
  ?job_ttl_ms:float ->
  Plan_cache.t ->
  t
(** [top_m] (default 2) candidates are queued per EXPAND; the FIFO holds
    at most [max_queue] (default 64) jobs — overflow drops the {e new}
    job (freshest speculation is the least certain). [job_ttl_ms]
    (default [None]: jobs never age out) bounds how long a queued job
    stays runnable: {!tick} discards jobs enqueued more than the TTL ago
    on [clock] (default the real clock) without charging budget — a
    speculation that sat that long is guessing about a session state
    long gone.
    @raise Invalid_argument if [top_m < 0], [max_queue < 1] or
    [job_ttl_ms < 0]. *)

val observe :
  t ->
  query:string ->
  active:Bionav_core.Active_tree.t ->
  k:int ->
  model:Bionav_core.Probability.model ->
  revealed:int list ->
  unit
(** Rank [revealed] (ties broken by ascending node id — deterministic)
    and enqueue the top-m expandable candidates whose plans are not
    already cached under the model's fingerprint. [k] and [model] must
    match the session's strategy, or speculated cuts would diverge from
    foreground ones. Does no cut computation itself. *)

val rank_snapshot :
  model:Bionav_core.Probability.model ->
  Bionav_search.Nav_snapshot.t ->
  int list ->
  Bionav_search.Nav_snapshot.vnode list
(** The snapshot-based half of {!observe}'s ranking, safe with {e no}
    lock held: filter the revealed nodes down to expandable ones and
    order them by selectivity mass × EXPAND probability, all computed
    from the published snapshot (its immutable sets + pure
    navigation-tree reads). Ties break by ascending node id. The expensive scoring runs
    off the engine's shard lock; pass the result to {!enqueue_ranked}. *)

val enqueue_ranked :
  t ->
  query:string ->
  Bionav_search.Nav_snapshot.t ->
  k:int ->
  model:Bionav_core.Probability.model ->
  Bionav_search.Nav_snapshot.vnode list ->
  unit
(** Enqueue the top-m of an already-ranked candidate list (from
    {!rank_snapshot}) whose plans are not yet cached. Jobs capture the
    snapshot's member sets, which are the live components' own, so
    cached plans serve foreground expands too. *)

val all_planned :
  t ->
  query:string ->
  model:Bionav_core.Probability.model ->
  Bionav_search.Nav_snapshot.t ->
  int list ->
  bool
(** Is a plan already cached (under the model's fingerprint) for every
    revealed node that is expandable in the snapshot? Then ranking them
    would enqueue nothing, and the caller can skip {!rank_snapshot}.
    Side-effect free, like {!Plan_cache.mem}. *)

val tick : t -> budget:int -> int
(** Run up to [budget] queued jobs now, oldest first; returns the number
    executed. A job whose plan appeared in the cache meanwhile (e.g. the
    user expanded it in the foreground first) is skipped for free but
    still consumes its budget unit. A job past the TTL is discarded and
    consumes {e no} budget (counted in [bionav_prefetch_expired_total]
    and {!expired}). *)

val drop_query : t -> string -> int
(** Cancel every queued job for the (normalized) query — called when its
    last session closes or expires so dead sessions leave no queued work
    behind; returns how many were dropped. Cached plans are {e not}
    touched: they are keyed by exact component and stay correct. *)

val hold : t -> string -> unit
(** Count one more live session holding the (normalized) key open. *)

val release : t -> string -> int
(** Count one holder of the key fewer. When the last holder leaves, drop
    the key's queued jobs as {!drop_query} does and return how many were
    dropped; otherwise return 0. *)

val queue_length : t -> int
val executed : t -> int
val dropped : t -> int
(** Per-instance counters: jobs run by {!tick}, jobs lost to overflow or
    {!drop_query}. *)

val expired : t -> int
(** Jobs discarded by {!tick} for outliving [job_ttl_ms]. *)
