(* Multi-domain stress for the sharded engine and its supporting
   concurrency primitives (DESIGN.md §11): parallel replay must agree
   with a serial replay expand-for-expand, the domain-safe metrics must
   account for every record exactly, snapshot docsets must read the same
   from every domain while writers share their arena, and the
   listener/worker queue must deliver every accepted item across
   domains. *)

open Bionav_util
open Bionav_core
module Engine = Bionav_engine.Engine
module Q = Bionav_workload.Queries

let workload = lazy (Q.build ~config:Q.small_config ~seed:5 ())

let engine () =
  let w = Lazy.force workload in
  Engine.create
    ~config:{ Engine.default_config with Engine.shards = 4 }
    ~database:w.Q.database ~eutils:w.Q.eutils ()

(* Run one session to its target under the shard lock (the same bulk
   discipline the web handler and bench use) and return its EXPAND
   count. *)
let drive_session eng q =
  match Engine.search eng q.Q.keyword with
  | Ok (Engine.Session s) ->
      let expands =
        Engine.run_locked s (fun () ->
            let nav = Engine.navigation s in
            ignore (Simulate.to_target nav ~target:q.Q.target_node);
            (Navigation.stats nav).Navigation.expands)
      in
      ignore (Engine.close eng (Engine.session_id s) : bool);
      expands
  | Ok Engine.No_results -> 0
  | Error e -> Alcotest.fail ("search failed: " ^ e)

(* Each domain's schedule: a disjoint round-robin slice of the query
   list plus query 0 shared by everyone, several rounds over. *)
let schedule ~queries ~domains d ~rounds =
  let nq = Array.length queries in
  List.concat_map
    (fun r -> [ queries.((d + (r * domains)) mod nq); queries.(0) ])
    (List.init rounds Fun.id)

let replay_total eng qs = List.fold_left (fun acc q -> acc + drive_session eng q) 0 qs

let test_multi_domain_stress () =
  let w = Lazy.force workload in
  let queries = Array.of_list w.Q.queries in
  let domains = 4 and rounds = 3 in
  (* Serial replay of the union of every domain's schedule: the
     reference expand total. *)
  Metrics.reset ();
  let serial =
    let eng = engine () in
    List.fold_left
      (fun acc d -> acc + replay_total eng (schedule ~queries ~domains d ~rounds))
      0
      (List.init domains Fun.id)
  in
  (* The same schedules, one domain each, against one engine. *)
  Metrics.reset ();
  let eng = engine () in
  let totals =
    Array.map Domain.join
      (Array.init domains (fun d ->
           Domain.spawn (fun () -> replay_total eng (schedule ~queries ~domains d ~rounds))))
  in
  let parallel = Array.fold_left ( + ) 0 totals in
  Alcotest.(check int) "no expand lost or duplicated vs serial replay" serial parallel;
  Alcotest.(check int)
    "global histogram count matches locally-counted expands" parallel
    (Metrics.count (Metrics.histogram "bionav_expand_latency_ms"));
  Alcotest.(check int) "all sessions closed" 0 (Engine.session_count eng)

(* --- lock discipline --------------------------------------------------- *)

(* Regression: a nested [run_locked] (or an engine action inside one)
   used to deadlock on the non-reentrant shard mutex; the engine now
   detects re-entry from the owning domain and raises. *)
let test_reentrant_run_locked () =
  let w = Lazy.force workload in
  let eng = engine () in
  let q = List.hd w.Q.queries in
  match Engine.search eng q.Q.keyword with
  | Ok (Engine.Session s) ->
      let raised =
        Engine.run_locked s (fun () ->
            match Engine.run_locked s (fun () -> ()) with
            | () -> false
            | exception Invalid_argument _ -> true)
      in
      Alcotest.(check bool) "nested run_locked raises Invalid_argument" true raised;
      (* The outer lock must have been released cleanly: the session
         still serves locked actions afterwards. *)
      ignore (Engine.backtrack s : bool);
      Alcotest.(check bool) "session usable after failed re-entry" true
        (Engine.run_locked s (fun () -> true))
  | Ok Engine.No_results -> Alcotest.fail "query unexpectedly empty"
  | Error e -> Alcotest.fail ("search failed: " ^ e)

let test_chaos_requires_single_shard () =
  let w = Lazy.force workload in
  let chaos =
    Bionav_resilience.Chaos.create
      { Bionav_resilience.Chaos.seed = 1;
        error_rate = 0.;
        delay_rate = 0.;
        delay_ms = (0., 0.);
        fail_ops = [] }
  in
  Alcotest.(check bool) "chaos plan with shards > 1 is rejected" true
    (match
       Engine.create
         ~config:{ Engine.default_config with Engine.shards = 2 }
         ~chaos ~database:w.Q.database ~eutils:w.Q.eutils ()
     with
    | (_ : Engine.t) -> false
    | exception Invalid_argument _ -> true);
  (* shards = 1 still accepts a plan — the supported chaos regime. *)
  let eng =
    Engine.create
      ~config:{ Engine.default_config with Engine.shards = 1 }
      ~chaos ~database:w.Q.database ~eutils:w.Q.eutils ()
  in
  Alcotest.(check int) "single-shard chaos engine works" 0 (Engine.session_count eng)

(* --- snapshot isolation ------------------------------------------------ *)

(* Check one published snapshot is a single, internally consistent
   epoch: walking the children edges from the root reaches exactly the
   captured node set, the visible components partition the navigation
   tree's nodes, and every cached cardinal matches its frozen docset. A
   torn mix of epochs trips at least one of these. *)
let assert_consistent snap =
  let module Snap = Bionav_search.Nav_snapshot in
  let nav_size = Nav_tree.size (Snap.nav snap) in
  let seen = ref 0 and members = ref 0 in
  let rec go id =
    incr seen;
    let v = Snap.get snap id in
    members := !members + Array.length v.Snap.members;
    if v.Snap.distinct <> Docset.cardinal v.Snap.results then
      Alcotest.failf "epoch %d: node %d cardinal %d <> |results| %d" (Snap.epoch snap)
        id v.Snap.distinct
        (Docset.cardinal v.Snap.results);
    List.iter go v.Snap.children
  in
  go (Snap.root snap);
  if !seen <> Snap.node_count snap then
    Alcotest.failf "epoch %d: %d nodes reachable, %d captured" (Snap.epoch snap) !seen
      (Snap.node_count snap);
  if !members <> nav_size then
    Alcotest.failf "epoch %d: members cover %d of %d tree nodes" (Snap.epoch snap)
      !members nav_size

(* Readers race writers over shared sessions on 4 domains: two writer
   domains loop expand-to-exhaustion-then-backtrack while two reader
   domains hammer [Engine.snapshot], asserting every observed snapshot
   is internally consistent and that epochs never go backwards within
   one reader's stream of a session. *)
let test_snapshot_isolation_stress () =
  let module Snap = Bionav_search.Nav_snapshot in
  let w = Lazy.force workload in
  let eng = engine () in
  let sessions =
    List.filter_map
      (fun q ->
        match Engine.search eng q.Q.keyword with
        | Ok (Engine.Session s) -> Some s
        | Ok Engine.No_results | Error _ -> None)
      w.Q.queries
  in
  Alcotest.(check bool) "workload produced sessions" true (sessions <> []);
  let sessions = Array.of_list sessions in
  let stop = Atomic.make false in
  let writer d () =
    let rng = Rng.create (40 + d) in
    for _ = 1 to 60 do
      let s = Rng.choice rng sessions in
      let snap = Engine.snapshot s in
      let expandable =
        List.filter (fun id -> (Snap.get snap id).Snap.expandable) (Snap.visible snap)
      in
      match expandable with
      | [] -> ignore (Engine.backtrack s : bool)
      | l -> (
          (* Losing the visibility race to the other writer is fine. *)
          try ignore (Engine.expand s (Rng.choice_list rng l) : int list)
          with Invalid_argument _ -> ())
    done
  in
  let reader d () =
    let rng = Rng.create (80 + d) in
    let last_epoch = Array.map (fun _ -> -1) sessions in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rng.int rng (Array.length sessions) in
      let snap = Engine.snapshot sessions.(i) in
      assert_consistent snap;
      if Snap.epoch snap < last_epoch.(i) then
        Alcotest.failf "session %d epoch went backwards: %d after %d" i (Snap.epoch snap)
          last_epoch.(i);
      last_epoch.(i) <- Snap.epoch snap;
      incr checks
    done;
    !checks
  in
  let readers = Array.init 2 (fun d -> Domain.spawn (reader d)) in
  let writers = Array.init 2 (fun d -> Domain.spawn (writer d)) in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  let checks = Array.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  Alcotest.(check bool) "readers observed snapshots" true (checks > 0);
  (* Quiesced: the published epoch equals the session's mutation count
     and one more consistency pass over the final snapshots holds. *)
  Array.iter (fun s -> assert_consistent (Engine.snapshot s)) sessions

(* --- engine-wide trees and plans ----------------------------------------- *)

let prefetch_engine shards =
  let w = Lazy.force workload in
  Engine.create
    ~config:
      { Engine.default_config with
        Engine.shards;
        prefetch = Some Bionav_prefetch.Prefetch.default_config }
    ~database:w.Q.database ~eutils:w.Q.eutils ()

let must_session = function
  | Ok (Engine.Session s) -> s
  | Ok Engine.No_results -> Alcotest.fail "query unexpectedly empty"
  | Error e -> Alcotest.fail ("search failed: " ^ e)

(* Engine.warm on four shards puts each distinct query's tree into the
   cache once, and sessions on every shard then find it there. *)
let test_warm_builds_each_tree_once () =
  let w = Lazy.force workload in
  let eng = prefetch_engine 4 in
  let queries = List.map (fun q -> q.Q.keyword) w.Q.queries in
  let distinct = List.length (List.sort_uniq String.compare (List.map Nav_cache.normalize queries)) in
  let warmed = Metrics.counter "bionav_prefetch_warmed_queries_total" in
  let builds = Metrics.histogram "bionav_nav_tree_build_ms" in
  let warmed0 = Metrics.value warmed and builds0 = Metrics.count builds in
  let entries = Engine.warm eng (queries @ List.rev queries) in
  Alcotest.(check int) "one entry per distinct query" distinct (List.length entries);
  Alcotest.(check int) "each tree cached once" (warmed0 + distinct) (Metrics.value warmed);
  List.iter
    (fun q ->
      let navs =
        List.init 8 (fun _ ->
            let s = must_session (Engine.search eng q) in
            ignore (Engine.close eng (Engine.session_id s) : bool);
            Engine.session_nav s)
      in
      List.iter
        (fun nav -> Alcotest.(check bool) "every shard serves the warmed tree" true (nav == List.hd navs))
        navs)
    queries;
  Alcotest.(check int) "no tree built after warm" builds0 (Metrics.count builds)

(* One scripted session: search, EXPAND the target's visible ancestor
   until the target shows, refine on it, open its facets, unrefine. Each
   step logs what it returned and the published snapshot (space, visible
   nodes with their counts, distinct results). *)
let script eng (q : Q.query) =
  let module Snap = Bionav_search.Nav_snapshot in
  let trace = ref [] in
  let note fmt = Printf.ksprintf (fun x -> trace := x :: !trace) fmt in
  let ints l = String.concat ";" (List.map string_of_int l) in
  let s = must_session (Engine.search eng q.Q.keyword) in
  let view () =
    let snap = Engine.snapshot s in
    let visible = List.sort Int.compare (Snap.visible snap) in
    note "%s [%s] %d" (Snap.space snap)
      (String.concat ";"
         (List.map (fun n -> Printf.sprintf "%d:%d" n (Snap.get snap n).Snap.distinct) visible))
      (Snap.distinct_results snap)
  in
  view ();
  let nav = Engine.session_nav s and target = q.Q.target_node in
  let steps = ref 0 in
  while !steps < 50 && not (Snap.mem (Engine.snapshot s) target) do
    let snap = Engine.snapshot s in
    let rec up n = if Snap.mem snap n then n else up (Nav_tree.parent nav n) in
    let n = up target in
    note "expand %d -> [%s]" n (ints (List.sort Int.compare (Engine.expand s n)));
    view ();
    incr steps
  done;
  if target <> Nav_tree.root nav then begin
    note "refine %d -> %d" target (Engine.refine s target);
    view ();
    note "facet -> %d" (Engine.facet s);
    view ();
    note "unrefine -> %b" (Engine.unrefine s);
    view ()
  end;
  ignore (Engine.close eng (Engine.session_id s) : bool);
  List.rev !trace

(* The scripted sessions of every Table I query, driven from two domains
   (each over all queries, in opposite orders) against a one-shard and a
   four-shard engine, must all produce the same trace step for step:
   sharing trees and plans across shards changes no result. *)
let test_shared_caches_differential () =
  let w = Lazy.force workload in
  let queries = Array.of_list w.Q.queries in
  let n = Array.length queries in
  let run shards =
    let eng = prefetch_engine shards in
    let traces =
      Array.map Domain.join
        (Array.init 2 (fun d ->
             Domain.spawn (fun () ->
                 let order = List.init n (fun i -> if d = 0 then i else n - 1 - i) in
                 let out = Array.make n [] in
                 List.iter (fun i -> out.(i) <- script eng queries.(i)) order;
                 out)))
    in
    Alcotest.(check int) "all sessions closed" 0 (Engine.session_count eng);
    traces
  in
  let one = run 1 and four = run 4 in
  let steps prefix =
    Array.fold_left
      (fun acc trace ->
        acc + List.length (List.filter (String.starts_with ~prefix) trace))
      0 one.(0)
  in
  Alcotest.(check bool) "scripts expand, refine and facet" true
    (steps "expand" > n && steps "refine" > 0 && steps "facet" > 0);
  Array.iteri
    (fun i reference ->
      List.iter
        (fun (name, traces) ->
          Array.iter
            (fun (t : string list array) ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s, query %d" name i)
                reference t.(i))
            traces)
        [ ("one shard", one); ("four shards", four) ])
    one.(0)

(* --- shared arena reads ------------------------------------------------ *)

(* A snapshot's docsets are its session's component sets in the
   navigation tree's arena, which other sessions of the same cached tree
   keep interning into. Three reader domains read one published
   snapshot's sets, including the memoizing [inter_cardinal], while a
   writer domain expands and backtracks other sessions of the same
   query; every read agrees with the values taken before they started. *)
let test_snapshot_docsets_across_domains () =
  let module Snap = Bionav_search.Nav_snapshot in
  let w = Lazy.force workload in
  let eng = engine () in
  let q = (List.hd w.Q.queries).Q.keyword in
  let start () = must_session (Engine.search eng q) in
  let s = start () in
  (* Reveal two levels so the snapshot holds upper components too. *)
  let expand_first_expandable s =
    let snap = Engine.snapshot s in
    match List.find_opt (fun id -> (Snap.get snap id).Snap.expandable) (Snap.visible snap) with
    | Some id -> ignore (Engine.expand s id : int list)
    | None -> ()
  in
  expand_first_expandable s;
  expand_first_expandable s;
  let snap = Engine.snapshot s in
  Alcotest.(check bool) "several visible nodes" true (Snap.node_count snap > 1);
  let root_results = (Snap.get snap (Snap.root snap)).Snap.results in
  let reads () =
    List.map
      (fun id ->
        let v = Snap.get snap id in
        ( Docset.elements v.Snap.results,
          Docset.elements v.Snap.member_set,
          Docset.cardinal v.Snap.results,
          Docset.inter_cardinal v.Snap.results root_results ))
      (Snap.visible snap)
  in
  let expected = reads () in
  let others = List.init 3 (fun _ -> start ()) in
  let stop = Atomic.make false in
  let writer () =
    let rng = Rng.create 7 in
    for _ = 1 to 40 do
      let o = Rng.choice_list rng others in
      let osnap = Engine.snapshot o in
      match
        List.filter (fun id -> (Snap.get osnap id).Snap.expandable) (Snap.visible osnap)
      with
      | [] -> ignore (Engine.backtrack o : bool)
      | l -> ignore (Engine.expand o (Rng.choice_list rng l) : int list)
    done;
    Atomic.set stop true
  in
  let reader () =
    let checks = ref 0 in
    while !checks = 0 || not (Atomic.get stop) do
      if reads () <> expected then Alcotest.fail "snapshot docsets changed under a writer";
      incr checks
    done;
    !checks
  in
  let readers = Array.init 3 (fun _ -> Domain.spawn reader) in
  let w = Domain.spawn writer in
  Domain.join w;
  let checks = Array.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  Alcotest.(check bool) "every reader read" true (checks >= 3);
  Alcotest.(check bool) "reads on the main domain" true (reads () = expected)

(* --- bounded queue ----------------------------------------------------- *)

let test_queue_capacity_and_close () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "push on full sheds" false (Bounded_queue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bounded_queue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bounded_queue.pop_opt q);
  Bounded_queue.close q;
  Alcotest.(check bool) "push after close sheds" false (Bounded_queue.try_push q 4);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Bounded_queue.pop_opt q);
  Alcotest.(check (option int)) "None once drained" None (Bounded_queue.pop_opt q);
  Alcotest.(check bool) "create rejects capacity 0" true
    (match Bounded_queue.create ~capacity:0 with
    | (_ : int Bounded_queue.t) -> false
    | exception Invalid_argument _ -> true)

let test_queue_cross_domain_delivery () =
  let q = Bounded_queue.create ~capacity:8 in
  let n = 200 in
  let consumer () =
    let sum = ref 0 and count = ref 0 in
    let rec loop () =
      match Bounded_queue.pop_opt q with
      | None -> ()
      | Some v ->
          sum := !sum + v;
          incr count;
          loop ()
    in
    loop ();
    (!sum, !count)
  in
  let c1 = Domain.spawn consumer and c2 = Domain.spawn consumer in
  let pushed = ref 0 in
  for i = 1 to n do
    (* The producer retries on a full queue — the web listener sheds
       instead, but here we want every item delivered exactly once. *)
    while not (Bounded_queue.try_push q i) do
      Domain.cpu_relax ()
    done;
    pushed := !pushed + i
  done;
  Bounded_queue.close q;
  let s1, k1 = Domain.join c1 and s2, k2 = Domain.join c2 in
  Alcotest.(check int) "every item delivered exactly once" !pushed (s1 + s2);
  Alcotest.(check int) "item count" n (k1 + k2)

let () =
  Alcotest.run "parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "multi-domain stress vs serial replay" `Quick test_multi_domain_stress;
          Alcotest.test_case "reentrant run_locked raises" `Quick test_reentrant_run_locked;
          Alcotest.test_case "chaos requires single shard" `Quick test_chaos_requires_single_shard;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "warm builds each tree once" `Quick test_warm_builds_each_tree_once;
          Alcotest.test_case "one vs four shards, two domains" `Quick
            test_shared_caches_differential;
        ] );
      ( "snapshots",
        [ Alcotest.test_case "isolation under 4 domains" `Quick test_snapshot_isolation_stress ] );
      ( "arena",
        [
          Alcotest.test_case "snapshot reads under writers" `Quick
            test_snapshot_docsets_across_domains;
        ] );
      ( "bounded_queue",
        [
          Alcotest.test_case "capacity and close" `Quick test_queue_capacity_and_close;
          Alcotest.test_case "cross-domain delivery" `Quick test_queue_cross_domain_delivery;
        ] );
    ]
