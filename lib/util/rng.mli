(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that corpus
    generation, workload construction and property tests are reproducible
    from a single integer seed. The generator is SplitMix64 (Steele, Lea,
    Flood 2014): tiny state, excellent statistical quality for simulation
    purposes, and trivially splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val choice : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniformly random element. Requires a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [min k (Array.length arr)] distinct elements
    without replacement, in random order. *)

val sample_in_place : t -> int -> 'a array -> len:int -> int
(** [sample_in_place t k arr ~len] is {!sample} over [arr.(0 .. len - 1)]
    without the copy: it permutes that prefix so the sample is its first
    [min k len] slots, and returns that count. The same draws as
    {!sample} on [Array.sub arr 0 len]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) process; 0-based. Requires [0. < p <= 1.]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal variate. *)
