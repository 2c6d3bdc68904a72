open Bionav_util
open Bionav_core
module Clock = Bionav_resilience.Clock

type job = {
  query : string;  (* normalized *)
  root : int;
  members : Docset.t;  (* component member ids captured at enqueue time *)
  nav : Nav_tree.t;
  k : int;
  model : Probability.model;
  enqueued_at_ms : float;  (* clock time at enqueue, for the job TTL *)
}

type t = {
  cache : Plan_cache.t;
  queue : job Queue.t;
  top_m : int;
  max_queue : int;
  clock : Clock.t;
  job_ttl_ms : float option;
  lock : Mutex.t;  (* leaf lock over [queue], [holders] and the counters *)
  holders : (string, int) Hashtbl.t;  (* normalized key -> sessions holding it *)
  mutable executed : int;
  mutable dropped : int;
  mutable expired : int;
}

let depth_gauge = Metrics.gauge "bionav_prefetch_queue_depth"
let speculations_counter = Metrics.counter "bionav_prefetch_speculations_total"
let dropped_counter = Metrics.counter "bionav_prefetch_dropped_total"
let expired_counter = Metrics.counter "bionav_prefetch_expired_total"
let precompute_hist = Metrics.histogram "bionav_prefetch_precompute_latency_ms"

let create ?(top_m = 2) ?(max_queue = 64) ?(clock = Clock.real) ?job_ttl_ms cache =
  if top_m < 0 then invalid_arg "Speculator.create: top_m must be >= 0";
  if max_queue < 1 then invalid_arg "Speculator.create: max_queue must be >= 1";
  (match job_ttl_ms with
  | Some ttl when ttl < 0. -> invalid_arg "Speculator.create: job_ttl_ms must be >= 0"
  | Some _ | None -> ());
  {
    cache;
    queue = Queue.create ();
    top_m;
    max_queue;
    clock;
    job_ttl_ms;
    lock = Mutex.create ();
    holders = Hashtbl.create 16;
    executed = 0;
    dropped = 0;
    expired = 0;
  }

let locked t f = Mutex.protect t.lock f

let queue_length t = locked t (fun () -> Queue.length t.queue)
let executed t = locked t (fun () -> t.executed)
let dropped t = locked t (fun () -> t.dropped)
let expired t = locked t (fun () -> t.expired)

(* Queue the jobs, dropping each one that finds the queue full. *)
let push t jobs =
  locked t (fun () ->
      List.iter
        (fun job ->
          if Queue.length t.queue >= t.max_queue then begin
            t.dropped <- t.dropped + 1;
            Metrics.incr dropped_counter
          end
          else begin
            Queue.add job t.queue;
            Metrics.add depth_gauge 1.
          end)
        jobs)

(* How promising is a follow-up EXPAND of [node]'s component? The cost
   model's own signals: the component's selectivity mass (the unnormalized
   EXPLORE numerator — Σ |L|/|LT| over members) times its EXPAND
   probability. Normalization is skipped: scores only rank siblings of one
   reveal, and the EXPLORE denominator is shared across them. *)
let score ~model active node =
  let mass = Active_tree.component_weight active node in
  let comp, _map = Active_tree.comp_tree active node in
  let all = List.init (Comp_tree.size comp) Fun.id in
  let px =
    model.Probability.expand comp ~members:all
      ~distinct:(Active_tree.component_distinct active node)
  in
  mass *. px

module Nav_snapshot = Bionav_search.Nav_snapshot

(* The same score computed from a published snapshot instead of the live
   active tree. Everything read here is immutable or domain-safe — the
   snapshot's vnodes, their immutable sets, and pure reads on the pinned
   navigation tree — so ranking runs with no lock held at all. *)
let snapshot_score ~model snap (v : Nav_snapshot.vnode) =
  let comp, _map =
    Nav_tree.comp_tree_of (Nav_snapshot.nav snap) ~root:v.Nav_snapshot.id
      ~members:(Array.to_list v.Nav_snapshot.members)
  in
  let all = List.init (Comp_tree.size comp) Fun.id in
  let px = model.Probability.expand comp ~members:all ~distinct:v.Nav_snapshot.distinct in
  v.Nav_snapshot.weight *. px

let rank_snapshot ~model snap revealed =
  let candidates =
    List.filter_map
      (fun n ->
        match Nav_snapshot.find snap n with
        | Some v when v.Nav_snapshot.expandable -> Some v
        | Some _ | None -> None)
      revealed
  in
  List.map fst
    (List.stable_sort
       (fun ((a : Nav_snapshot.vnode), sa) (b, sb) ->
         match Float.compare sb sa with
         | 0 -> Int.compare a.Nav_snapshot.id b.Nav_snapshot.id
         | c -> c)
       (List.map (fun v -> (v, snapshot_score ~model snap v)) candidates))

let all_planned t ~query ~model snap revealed =
  let query = Nav_cache.normalize query and fingerprint = model.Probability.fingerprint in
  List.for_all
    (fun n ->
      match Nav_snapshot.find snap n with
      | Some v when v.Nav_snapshot.expandable ->
          Plan_cache.mem t.cache ~query ~fingerprint ~root:n ~members:v.Nav_snapshot.member_set
      | Some _ | None -> true)
    revealed

let top t ranked = List.filteri (fun i _ -> i < t.top_m) ranked

(* Jobs for the (root, members) candidates whose plans are not cached. *)
let new_jobs t ~query ~nav ~k ~model candidates =
  let fingerprint = model.Probability.fingerprint in
  List.filter_map
    (fun (root, members) ->
      if Plan_cache.mem t.cache ~query ~fingerprint ~root ~members then None
      else Some { query; root; members; nav; k; model; enqueued_at_ms = Clock.now_ms t.clock })
    candidates

let enqueue_ranked t ~query snap ~k ~model ranked =
  (* The member sets are the live components' own sets, so cached plans
     serve both paths. *)
  push t
    (new_jobs t ~query:(Nav_cache.normalize query) ~nav:(Nav_snapshot.nav snap) ~k ~model
       (List.map (fun (v : Nav_snapshot.vnode) -> (v.Nav_snapshot.id, v.Nav_snapshot.member_set))
          (top t ranked)))

let observe t ~query ~active ~k ~model ~revealed =
  let candidates = List.filter (Active_tree.is_expandable active) revealed in
  let ranked =
    List.stable_sort
      (fun (a, sa) (b, sb) ->
        match Float.compare sb sa with 0 -> Int.compare a b | c -> c)
      (List.map (fun n -> (n, score ~model active n)) candidates)
  in
  push t
    (new_jobs t ~query:(Nav_cache.normalize query) ~nav:(Active_tree.nav active) ~k ~model
       (List.map
          (fun (node, _score) -> (node, Active_tree.component_set active node))
          (top t ranked)))

(* Runs with no lock held: the tree and its arena are domain-safe, and
   the plan cache takes its own lock. *)
let run_job t job =
  let fingerprint = job.model.Probability.fingerprint in
  if not (Plan_cache.mem t.cache ~query:job.query ~fingerprint ~root:job.root ~members:job.members)
  then begin
    let (), ms =
      Timing.time (fun () ->
          let comp, _map =
            Nav_tree.comp_tree_of job.nav ~root:job.root ~members:(Docset.elements job.members)
          in
          if Comp_tree.size comp >= 2 then begin
            let report = Heuristic.best_cut ~model:job.model ~k:job.k comp in
            let cut = List.map (Comp_tree.tag comp) report.Heuristic.cut_children in
            Plan_cache.store t.cache ~query:job.query ~fingerprint ~root:job.root
              ~members:job.members ~cut
          end)
    in
    Metrics.observe precompute_hist ms;
    Logs.debug (fun m ->
        m "speculator: precomputed plan for node %d of %S (%.2f ms)" job.root job.query ms)
  end

let stale t job =
  match t.job_ttl_ms with
  | None -> false
  | Some ttl -> Clock.now_ms t.clock -. job.enqueued_at_ms > ttl

(* The oldest job still within its TTL, discarding expired ones on the
   way. Called under the lock. *)
let rec next_job_locked t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some job ->
      Metrics.add depth_gauge (-1.);
      if stale t job then begin
        (* A speculation that sat past its TTL is guessing about a session
           state long gone; discarding it is free, so it costs no budget. *)
        t.expired <- t.expired + 1;
        Metrics.incr expired_counter;
        Logs.debug (fun m -> m "speculator: expired job for node %d of %S" job.root job.query);
        next_job_locked t
      end
      else Some job

let tick t ~budget =
  let rec go n =
    if n >= budget then n
    else
      match locked t (fun () -> next_job_locked t) with
      | None -> n
      | Some job ->
          run_job t job;
          locked t (fun () -> t.executed <- t.executed + 1);
          Metrics.incr speculations_counter;
          go (n + 1)
  in
  go 0

let drop_locked t query =
  let keep = Queue.create () in
  let n_dropped = ref 0 in
  Queue.iter
    (fun j -> if String.equal j.query query then incr n_dropped else Queue.add j keep)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue;
  if !n_dropped > 0 then begin
    t.dropped <- t.dropped + !n_dropped;
    Metrics.incr ~by:!n_dropped dropped_counter;
    Metrics.add depth_gauge (-.float_of_int !n_dropped)
  end;
  !n_dropped

let drop_query t query =
  let query = Nav_cache.normalize query in
  locked t (fun () -> drop_locked t query)

let hold t key =
  let key = Nav_cache.normalize key in
  locked t (fun () ->
      Hashtbl.replace t.holders key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.holders key)))

let release t key =
  let key = Nav_cache.normalize key in
  locked t (fun () ->
      match Hashtbl.find_opt t.holders key with
      | Some n when n > 1 ->
          Hashtbl.replace t.holders key (n - 1);
          0
      | Some _ | None ->
          Hashtbl.remove t.holders key;
          drop_locked t key)
