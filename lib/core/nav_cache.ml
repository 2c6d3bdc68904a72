open Bionav_util

(* A build in progress: the first requester of a missing key builds the
   tree outside the lock, later requesters of that key wait for its
   outcome on [landed]. *)
type flight = { mutable outcome : (Nav_tree.t, exn * Printexc.raw_backtrace) result option }

type t = {
  cache : (string, Nav_tree.t) Lru.t;
  build : string -> Nav_tree.t;
  lock : Mutex.t;  (* guards every field below and [cache] *)
  landed : Condition.t;  (* broadcast whenever a flight lands *)
  flights : (string, flight) Hashtbl.t;
  folder : int Atomic.t;  (* domain running a [fold_trees] callback, or -1 *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 32) ~build () =
  {
    cache = Lru.create ~capacity;
    build;
    lock = Mutex.create ();
    landed = Condition.create ();
    flights = Hashtbl.create 8;
    folder = Atomic.make (-1);
    hits = 0;
    misses = 0;
  }

let normalize q = String.lowercase_ascii (String.trim q)

let hits_counter = Metrics.counter "bionav_cache_hits_total"
let misses_counter = Metrics.counter "bionav_cache_misses_total"
let evictions_counter = Metrics.counter "bionav_cache_evictions_total"
let build_hist = Metrics.histogram "bionav_nav_tree_build_ms"

let locked t f =
  if Atomic.get t.folder = (Domain.self () :> int) then
    invalid_arg "Nav_cache: cache used from inside a fold_trees callback";
  Mutex.protect t.lock f

let add_locked t key nav =
  let evictions_before = Lru.evictions t.cache in
  Lru.add t.cache key nav;
  if Lru.evictions t.cache > evictions_before then Metrics.incr evictions_counter

let outcome = function Ok nav -> nav | Error (e, bt) -> Printexc.raise_with_backtrace e bt

type lookup = Served of (Nav_tree.t, exn * Printexc.raw_backtrace) result | Build of flight

let find_or_build t key build =
  let lookup =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some nav ->
            t.hits <- t.hits + 1;
            Served (Ok nav)
        | None -> (
            match Hashtbl.find_opt t.flights key with
            | Some fl ->
                (* Another domain is building this key: wait for it (the
                   wait releases the lock) and count a hit. *)
                t.hits <- t.hits + 1;
                while fl.outcome = None do
                  Condition.wait t.landed t.lock
                done;
                Served (Option.get fl.outcome)
            | None ->
                t.misses <- t.misses + 1;
                let fl = { outcome = None } in
                Hashtbl.replace t.flights key fl;
                Build fl))
  in
  match lookup with
  | Served r ->
      Metrics.incr hits_counter;
      outcome r
  | Build fl ->
      Metrics.incr misses_counter;
      let r =
        match Timing.time build with
        | nav, build_ms ->
            Metrics.observe build_hist build_ms;
            Ok nav
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.flights key;
          fl.outcome <- Some r;
          (match r with Ok nav -> add_locked t key nav | Error _ -> ());
          Condition.broadcast t.landed);
      outcome r

let get t query = find_or_build t (normalize query) (fun () -> t.build query)

let hit_rate t =
  let h, m = locked t (fun () -> (t.hits, t.misses)) in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> Lru.evictions t.cache)

let put t query nav = locked t (fun () -> add_locked t (normalize query) nav)

(* The callback runs outside the lock, over the trees cached when the
   fold started; using the cache from inside it raises instead. *)
let fold_trees t f acc =
  let trees = locked t (fun () -> Lru.fold t.cache List.cons []) in
  Atomic.set t.folder (Domain.self () :> int);
  Fun.protect
    ~finally:(fun () -> Atomic.set t.folder (-1))
    (fun () -> List.fold_left (fun acc nav -> f nav acc) acc trees)

let clear t =
  locked t (fun () ->
      Lru.clear t.cache;
      Lru.reset_counters t.cache;
      t.hits <- 0;
      t.misses <- 0)
