(** The faultable backend facade: chaos injection, retry with backoff,
    and a circuit breaker around one thunk.

    The engine routes every backend call (keyword search against the
    store) through {!call}; the chaos harness and the serving stack share
    the exact same code path, so a fault plan exercises precisely the
    retries, trips and rejections production would take. Per call:

    + if the breaker is open, reject instantly with [Circuit_open];
    + otherwise attempt the thunk under the retry schedule; each attempt
      first consults the fault plan (a [Delay] verdict sleeps virtual or
      real clock time, a [Fail] verdict raises {!Chaos.Injected}), then
      runs the thunk, catching its exceptions;
    + every attempt's outcome feeds the breaker; exhausted schedules
      return [Gave_up].

    {!inject} applies only the {e latency} half of the plan to
    non-backend ops (e.g. ["expand"]), where a failure makes no sense but
    a spike should still eat into deadlines.

    {!call} and {!inject} serialize on an internal lock (breaker, fault
    plan and jitter rng are shared state), so one guard may serve any
    domain. The lock is held while the thunk runs. *)

type config = {
  retry : Retry.config;
  breaker : Breaker.config option;  (** [None]: no circuit breaking. *)
}

val default_config : config

type error =
  | Circuit_open
  | Gave_up of string  (** Retry schedule exhausted; payload describes the last failure. *)

val error_message : error -> string

type t

val create : ?chaos:Chaos.t -> ?config:config -> ?seed:int -> clock:Clock.t -> unit -> t
(** [seed] (default 0) feeds the backoff jitter rng.
    @raise Invalid_argument on malformed retry or breaker configs. *)

val call : t -> op:string -> (unit -> 'a) -> ('a, error) result
(** Run [f] under the full protocol above. [f]'s exceptions are caught
    and treated as failures (retried, counted against the breaker) —
    they never escape. *)

val inject : t -> op:string -> unit
(** Consult the fault plan for [op] and apply a [Delay] verdict ([Fail]
    verdicts are ignored — draws still happen, keeping the plan stream
    aligned). No-op without a chaos plan. *)

val breaker : t -> Breaker.t option
val chaos : t -> Chaos.t option
