(** Immutable sets of non-negative integers, stored as sorted arrays.

    Result lists in BioNav are sets of citation identifiers. Navigation-cost
    computation repeatedly needs distinct counts of unions across component
    subtrees, so the representation is optimized for fast merge and
    cardinality: a sorted, duplicate-free [int array]. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t

val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_array : int array -> t
(** Sorts and deduplicates; does not mutate its argument. *)

val of_sorted_array_unchecked : int array -> t
(** Adopts the array without copying. The caller must guarantee it is sorted
    strictly increasing; violations are detected only in debug assertions. *)

val cardinal : t -> int

val transpose : n_cols:int -> t array -> t array
(** [transpose ~n_cols rows] is the column view of a 0/1 matrix given by
    its rows: element [r] of result [c] iff [c] is in [rows.(r)]. The
    result has exactly [n_cols] sets.
    @raise Invalid_argument if a row holds a value outside [0, n_cols). *)

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_many : t list -> t
(** k-way merge, O(N log k): pairwise balanced merging for small k,
    heap-based merge (one output pass, no intermediate arrays) for
    large k. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] = [cardinal (inter a b)] without allocating. *)

val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val elements : t -> int list
val to_array : t -> int array
(** Fresh copy; safe to mutate. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val choose : t -> int
(** Smallest element. @raise Not_found if empty. *)

val pp : Format.formatter -> t -> unit
