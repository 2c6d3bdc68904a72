(** Sorting [int array]s with monomorphic comparisons.

    The corpus load path sorts millions of ints (per-citation concept
    sets, the segment-store run buffer). [Array.sort compare] pays an
    indirect call per comparison; these sorts compare unboxed ints
    inline, allocate nothing and work in place. *)

val sort_prefix : int array -> len:int -> unit
(** [sort_prefix a ~len] sorts [a.(0) .. a.(len - 1)] ascending in place
    and leaves [a.(len) ..] untouched. Introsort: median-of-three
    quicksort, insertion sort on short ranges, heapsort past a
    [2 log2 len] recursion depth, so the worst case is O(len log len).
    Not stable (equal ints are indistinguishable).
    @raise Invalid_argument if [len] is outside [0, Array.length a]. *)

val sorted_unique : int array -> int array
(** A fresh, strictly increasing copy of the argument's elements; the
    argument is not mutated. *)
