(** Per-query arenas of interned integer sets.

    Navigation passes the same citation sets up and down the stack: the
    [I(n)] sets of ancestor chains overlap massively, component trees copy
    node result lists out of the navigation tree, and the cost model's hot
    loop re-unions the same subtrees for every candidate cut. An arena
    stores each {e distinct} set exactly once (structural interning), picks
    a density-appropriate physical representation per set — sorted array
    for sparse sets, packed bitset for dense ones — and memoizes set
    algebra on interned ids, so repeated unions, intersections and
    distinct-count queries are O(1) table hits after first computation.

    Ids are only meaningful within their arena. {!Docset} wraps (arena, id)
    pairs into self-contained handles; this module is the storage layer.

    {b Concurrency model.} An arena is safe to share between domains.
    Writers ({!intern}, set algebra, the memoizing {!inter_cardinal})
    serialize on one internal lock that guards the intern table, the op
    and count memos and the stat fields; merges, packing and counting run
    outside it, and a writer re-checks the tables before it inserts, so
    racing writers of the same set or operation converge on one id. The
    lock is a single [Atomic], so an arena that never meets a second
    domain pays no finaliser and no syscall for it.

    Pure reads ({!cardinal}, {!mem}, {!iter}, {!to_array},
    {!fingerprint}, …) take no lock: interned sets are immutable once
    published, and the backing arrays are grown copy-then-publish through
    [Atomic]s (slot stores happen before the set count is advanced, so a
    reader never observes a half-initialized slot). Published navigation
    snapshots hand out sets of their tree's arena and rely on exactly
    this (DESIGN.md §12). *)

type t

type id = int
(** Dense arena-local set identifier. Equal ids denote the same physical
    (and therefore structurally equal) set. *)

val create : unit -> t

val adopt : t -> unit
(** Does nothing. Arenas are internally synchronized, so no domain needs
    to take an arena over before writing to it; kept for source
    compatibility with older callers. *)

val empty_id : id
(** The empty set, pre-interned in every arena (id 0). *)

val intern : t -> int array -> id
(** Intern a {b sorted, strictly increasing} array (the arena copies or
    repacks it). Returns the existing id when a structurally
    equal set is already interned. @raise Invalid_argument if the array is
    not strictly increasing. *)

val intern_unchecked : t -> int array -> id
(** [intern] without the sortedness check; the caller must guarantee it.
    The array must not be mutated afterwards (the arena may keep it). *)

val intern_sub : t -> int array -> off:int -> len:int -> id
(** Intern the slice [a.(off) .. a.(off + len - 1)], which the caller
    guarantees sorted strictly increasing. The slice is copied only when
    it is a new set; a dedup hit allocates nothing, so a caller may
    intern out of a reused buffer.
    @raise Invalid_argument if the slice is out of bounds. *)

val import : t -> src:t -> id -> id
(** [import t ~src id] interns set [id] of arena [src] into [t] (the same
    id when [src == t]). The representation is shared, not copied:
    interned sets are immutable. *)

val cardinal : t -> id -> int
(** O(1). *)

val fingerprint : t -> id -> int
(** Content hash, computed once at intern time; equal sets have equal
    fingerprints in {e any} arena. O(1). *)

val mem : t -> id -> int -> bool
val choose : t -> id -> int
(** Smallest element. @raise Not_found on the empty set. *)

val to_array : t -> id -> int array
(** Fresh sorted array; safe to mutate. *)

val iter : t -> id -> (int -> unit) -> unit
(** Ascending. *)

val fold : t -> id -> (int -> 'a -> 'a) -> 'a -> 'a
(** Ascending. *)

val equal_array : t -> id -> int array -> bool
(** Does the interned set contain exactly the elements of this sorted
    array? Allocation-free. *)

val union : t -> id -> id -> id
val inter : t -> id -> id -> id
val diff : t -> id -> id -> id
(** Memoized per (operation, operand pair): the first call merges the
    operands in place (bitsets are unpacked into a per-domain buffer) into
    a per-domain result buffer and interns it, repeats are table hits.
    Only a result that is a new set is copied out of the buffer. *)

val union_many : t -> id list -> id
(** Fold of memoized {!union}s over the de-duplicated, ascending operand
    ids — deterministic, so overlapping calls share memo entries. *)

val inter_cardinal : t -> id -> id -> int
(** [cardinal (inter a b)] without materializing the intersection:
    SWAR popcount over word pairs for bitset operands, merge-count for
    sorted ones. Memoized. *)

val union_cardinal : t -> id -> id -> int
(** [cardinal a + cardinal b - inter_cardinal a b], allocation-free. *)

val subset : t -> id -> id -> bool

type stats = {
  sets : int;  (** Distinct sets interned (including the empty set). *)
  bytes : int;  (** Resident payload bytes across all representations. *)
  dense : int;  (** Sets stored as packed bitsets. *)
  sparse : int;  (** Sets stored as sorted arrays. *)
  intern_requests : int;  (** Total [intern] calls. *)
  dedup_hits : int;  (** Intern calls answered by an existing set. *)
  memo_hits : int;  (** Set-algebra calls answered from the op memo. *)
}

val stats : t -> stats

val dedup_hit_rate : t -> float
(** [dedup_hits / intern_requests], 0 when nothing was interned. *)
