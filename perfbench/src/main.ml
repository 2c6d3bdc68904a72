(* The BioNav end-to-end benchmark: search / EXPAND / refine latency as a
   user sees it over HTTP, on two seeded workloads, plus a traced run
   that splits the time by layer. See README.md for the workloads, the
   metrics and the rules they follow.

   Usage: main.exe --workload hot-zipf|cold-tail --seed N
                   [--seconds S] [--trace 0|1] [--rate R]

   One process serves: it builds the paper-scale corpus, (cold-tail)
   ingests it into a segment store, warms the engine (hot-zipf) and runs
   the serving stack the way `bionav serve --domains 2 --prefetch` does:
   Http.serve over App.handle on the main domain, 2 worker domains, 2
   engine shards, a speculation domain.
   The load comes from one generator process, forked first thing --
   before the corpus exists and before any domain is spawned -- that
   opens at most nproc keep-alive connections, one domain each. Sessions
   arrive open loop at a fixed rate; inside a session each click waits
   for the previous page. After the window the server replays a seeded
   sample of the sessions in-process on a fresh engine and compares the
   served pages with it node for node.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; the metrics are the
   gated end-to-end ones with --trace 0, and the latency medians and the
   per-layer ones with --trace 1. The line before it reports every
   run's latency, the one before that its provenance. *)

open Bionav_util
module Q = Bionav_workload.Queries
module Engine = Bionav_engine.Engine
module App = Bionav_web.App
module Http = Bionav_web.Http
module Eutils = Bionav_search.Eutils
module Snap = Bionav_search.Nav_snapshot
module Nav_tree = Bionav_core.Nav_tree
module Nav_space = Bionav_core.Nav_space
module Navigation = Bionav_core.Navigation
module Database = Bionav_store.Database
module Store = Bionav_segstore.Store
module Ingest = Bionav_segstore.Ingest
module Bridge = Bionav_segstore.Bridge
module Prefetch = Bionav_prefetch.Prefetch
module Quantile = Perfbench.Quantile
module Wire = Perfbench.Wire
module Window = Perfbench.Window
module Trace = Perfbench.Trace

let corpus_seed = 11
let out_dir = ".perfbench_out"
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- workloads ---------------------------------------------------------- *)

type workload = Hot_zipf | Cold_tail

(* Offered load, in sessions per second: set once, at about a third of
   the rate where a backlog starts on the 2-core box this was written on
   at a quiet time (about 40/s for hot-zipf, 4-5/s for cold-tail), so
   that the slow minutes of a shared box, which move the knee down by a
   third, stay below it (README.md, "Rates"). *)
let rate = function Hot_zipf -> 12. | Cold_tail -> 1.5

let workload_name = function
  | Hot_zipf -> "hot-zipf"
  | Cold_tail -> "cold-tail"

let workload_of_name = function
  | "hot-zipf" -> Some Hot_zipf
  | "cold-tail" -> Some Cold_tail
  | _ -> None

(* Length of the measured window, in seconds; BENCHMARK.json's
   run_seconds. *)
let default_seconds = 20

(* Upper bound on requests per session, used to stop the server after
   the window (see [stop_server]). *)
let max_oracle_expands = 24

let max_requests_per_session = function
  | Hot_zipf -> max_oracle_expands + 5
  | Cold_tail -> 12

(* Sessions replayed against a fresh engine: a seeded sample of the
   window's sessions, larger in a traced run, whose per-layer spans come
   from the replay. *)
let checked_sessions ~trace = if trace then 32 else 8

(* --- the generator's side ------------------------------------------------ *)

type action =
  | Search of string
  | Expand of int
  | Refine of int
  | Unrefine
  | Facets
  | Read_session
  | Read_show of int

type kind = K_search | K_expand | K_refine | K_read | K_space

let kind_of = function
  | Search _ -> K_search
  | Expand _ -> K_expand
  | Refine _ -> K_refine
  | Unrefine | Facets -> K_space
  | Read_session | Read_show _ -> K_read

let kind_name = function
  | K_search -> "search"
  | K_expand -> "expand"
  | K_refine -> "refine"
  | K_read -> "read"
  | K_space -> "space"

(* One Table I query as the oracle user needs it: the keyword, the
   navigation tree's parent links and the target node. *)
type oracle = { keyword : string; parents : int array; target : int }

type gen_input = {
  g_workload : workload;
  g_seed : int;
  g_seconds : float;
  g_rate : float;  (** sessions per second *)
  g_trace : bool;
  g_port : int;
  g_start : float;  (** wall-clock time of the first arrival *)
  g_table1 : oracle array;
  g_pool : string array;  (** cold-tail query pool *)
}

type request = {
  rid : int;
  kind : kind;
  due : float;  (** the session's arrival for its first request, the
                     moment the previous page returned for the others *)
  first : bool;  (** the session's first request *)
  sent : float;
  finished : float;
  status : int;
  bytes : int;
}

(* What the generator saw for one action, kept for checked sessions. *)
type step = { act : action; srid : int; page : Wire.page option; shown : int }

type session_result = {
  nav_cost : int;  (** EXPANDs + concepts revealed, from the served pages *)
  problems : string list;  (** generator-side check failures *)
  transcript : step list option;
}

type gen_output = {
  requests : request array;
  sessions : session_result array;
  cpu_s : float;
  connections : int;
  domains : int;
}

exception Bad_response of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_response s)) fmt

(* A session's first request counts from the session's scheduled
   arrival, so a generator that could not start it on time (both
   connections busy) charges the wait to it. Later clicks count from
   when they were sent: the generator's own time between a page and
   the next click is reported as lateness, not as server latency. *)
let latency_ms r = ((r.finished -. if r.first then r.due else r.sent) *. 1000.)

let diff_sorted a b =
  (* elements of ascending [a] missing from ascending [b] *)
  let rec go a b acc =
    match (a, b) with
    | [], _ -> List.rev acc
    | x :: a', [] -> go a' [] (x :: acc)
    | x :: a', y :: b' ->
        if x = y then go a' b' acc else if x < y then go a' b (x :: acc) else go a b' acc
  in
  go a b []

let target_of ~sid = function
  | Search q -> Bionav_web.Html.url "/search" [ ("q", q) ]
  | Expand n -> Printf.sprintf "/expand?sid=%s&node=%d" sid n
  | Refine n -> Printf.sprintf "/refine?sid=%s&node=%d" sid n
  | Unrefine -> "/unrefine?sid=" ^ sid
  | Facets -> "/facets?sid=" ^ sid
  | Read_session -> "/session?sid=" ^ sid
  | Read_show n -> Printf.sprintf "/show?sid=%s&node=%d&page=0" sid n

(* The query of every session, drawn by systematic sampling: session i
   takes the quantile (i + u) / n of the workload's query distribution,
   with one seeded offset u, and the order is then shuffled. Every run
   thus sees the distribution in its exact proportions -- Zipf(1.0) over
   the Table I queries, or uniform over the cold-tail pool sorted by
   navigation-tree size -- and the seed changes which queries fall where, not
   how many of each kind there are. *)
let plan_queries input ~n_sessions master =
  let u = Rng.float master 1.0 in
  let x i = (float_of_int i +. u) /. float_of_int n_sessions in
  let n_table1 = Array.length input.g_table1 in
  let pick =
    match input.g_workload with
    | Hot_zipf ->
        let zipf = Zipf.create ~exponent:1.0 n_table1 in
        fun i ->
          let rec find k acc =
            let acc = acc +. Zipf.prob zipf k in
            if k = n_table1 - 1 || acc >= x i then k else find (k + 1) acc
          in
          find 0 0.
    | Cold_tail ->
        let n = Array.length input.g_pool in
        fun i -> min (n - 1) (int_of_float (x i *. float_of_int n))
  in
  let plan = Array.init n_sessions pick in
  Rng.shuffle master plan;
  plan

let run_generator (input : gen_input) =
  let n_sessions = max 1 (int_of_float (input.g_rate *. input.g_seconds)) in
  let domains = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let requests = ref [] and req_lock = Mutex.create () in
  let next_rid = ref 1 in
  let results = Array.make n_sessions None in
  let master = Rng.create input.g_seed in
  (* The seeded sample of sessions to check. *)
  let checked =
    let c = Array.make n_sessions false in
    let idx = Array.init n_sessions Fun.id in
    Rng.shuffle master idx;
    Array.iteri (fun k i -> if k < checked_sessions ~trace:input.g_trace then c.(i) <- true) idx;
    c
  in
  let queries = plan_queries input ~n_sessions master in
  (* Node choices are stratified the same way: the j-th choice of
     session i takes the candidate at quantile (perm_j(i) + v_j) / n of
     the page's candidates ranked by citation count, so over a run the
     choices cover large and small nodes in fixed proportions. *)
  let strata =
    Array.init 8 (fun _ ->
        let perm = Array.init n_sessions Fun.id in
        Rng.shuffle master perm;
        (perm, Rng.float master 1.0))
  in
  let next_session = ref 0 and sched_lock = Mutex.create () in
  let interval = 1. /. input.g_rate in
  let conns = ref 0 in
  let run_session conn i =
    let arrival = input.g_start +. (float_of_int i *. interval) in
    let now = Unix.gettimeofday () in
    if arrival > now then Unix.sleepf (arrival -. now);
    let keep = checked.(i) in
    let transcript = ref [] in
    let due = ref arrival and first = ref true in
    let sid = ref "" in
    let cost = ref 0 in
    let page = ref None in
    let request act =
      let rid =
        Mutex.protect req_lock (fun () ->
            let r = !next_rid in
            incr next_rid;
            r)
      in
      let target = target_of ~sid:!sid act in
      let target = if input.g_trace then Printf.sprintf "%s&rid=%d" target rid else target in
      let sent = Unix.gettimeofday () in
      let status, body, reconnect = Wire.get !conn target in
      let finished = Unix.gettimeofday () in
      if reconnect then begin
        Wire.close !conn;
        conn := Wire.connect input.g_port;
        Mutex.protect sched_lock (fun () -> incr conns)
      end;
      let r =
        { rid; kind = kind_of act; due = !due; first = !first; sent; finished; status;
          bytes = String.length body }
      in
      Mutex.protect req_lock (fun () -> requests := r :: !requests);
      due := finished;
      first := false;
      if status <> 200 then fail "%s -> HTTP %d" target status;
      (rid, body)
    in
    let record act rid pg shown =
      if keep then transcript := { act; srid = rid; page = pg; shown } :: !transcript
    in
    (* A tree-changing action: the page must show this session's tree. *)
    let tree act =
      let rid, body = request act in
      let p = Wire.parse_tree body in
      if p.Wire.sid = "" || p.Wire.visible = [] then fail "no tree in the response";
      if !sid <> "" && p.Wire.sid <> !sid then fail "page of session %s, expected %s" p.Wire.sid !sid;
      sid := p.Wire.sid;
      (match (act, !page) with
      | Expand _, Some before ->
          cost := !cost + 1 + List.length (diff_sorted p.Wire.visible before.Wire.visible)
      | _ -> ());
      page := Some p;
      record act rid (Some p) 0;
      p
    in
    (* A snapshot read: /session must show exactly the last write's tree. *)
    let read act =
      let rid, body = request act in
      match act with
      | Read_show _ ->
          let n = Wire.show_count body in
          if n < 0 then fail "no citation count on the results page";
          record act rid None n
      | _ ->
          let p = Wire.parse_tree body in
          (match !page with
          | Some last when last.Wire.visible <> p.Wire.visible || last.Wire.results <> p.Wire.results ->
              fail "snapshot read disagrees with the last write"
          | _ -> ());
          record act rid (Some p) 0
    in
    let current () = Option.get !page in
    let slot = ref 0 in
    let pick l =
      let perm, v = strata.(!slot mod Array.length strata) in
      incr slot;
      let u = (float_of_int perm.(i) +. v) /. float_of_int n_sessions in
      let count n = Option.value ~default:0 (List.assoc_opt n (current ()).Wire.counts) in
      let ranked =
        List.sort (fun a b -> compare (count b, a) (count a, b)) l |> Array.of_list
      in
      ranked.(min (Array.length ranked - 1) (int_of_float (u *. float_of_int (Array.length ranked))))
    in
    let non_root p = List.filter (fun n -> n <> 0) p.Wire.visible in
    let expand_random () =
      match (current ()).Wire.expandable with
      | [] -> read Read_session
      | l -> ignore (tree (Expand (pick l)))
    in
    (* Each timed kind is kept away from an even split between two
       populations whose costs differ (the root EXPAND vs deeper ones,
       /session vs results pages): a median taken at the boundary of two
       such modes jumps between them from run to run. *)
    let problems =
      try
        (match input.g_workload with
        | Hot_zipf ->
            let q = input.g_table1.(queries.(i)) in
            let p = ref (tree (Search q.keyword)) in
            let steps = ref 0 in
            while not (List.mem q.target !p.Wire.visible) do
              (* The oracle user expands the deepest visible ancestor of
                 the target: the root of the component hiding it. *)
              let rec up n = if List.mem n !p.Wire.visible then n else up q.parents.(n) in
              let node = up q.target in
              if not (List.mem node !p.Wire.expandable) then fail "oracle node %d not expandable" node;
              incr steps;
              if !steps > max_oracle_expands then fail "oracle did not reach the target";
              p := tree (Expand node)
            done;
            read Read_session;
            read (Read_show q.target);
            ignore (tree (Refine q.target));
            read Read_session
        | Cold_tail ->
            ignore (tree (Search input.g_pool.(queries.(i))));
            expand_random ();
            expand_random ();
            expand_random ();
            (match non_root (current ()) with
            | [] -> fail "no node to refine on"
            | l -> ignore (tree (Refine (pick l))));
            read Read_session;
            ignore (tree Facets);
            read Read_session;
            read (Read_show (pick (current ()).Wire.visible));
            ignore (tree Unrefine);
            ignore (tree Unrefine);
            read Read_session);
        []
      with
      | Bad_response msg -> [ msg ]
      | Failure msg | Sys_error msg -> [ msg ]
      | Unix.Unix_error (e, f, _) -> [ f ^ ": " ^ Unix.error_message e ]
    in
    results.(i) <-
      Some
        { nav_cost = !cost; problems;
          transcript = (if keep then Some (List.rev !transcript) else None) }
  in
  let worker () =
    let conn = ref (Wire.connect input.g_port) in
    Mutex.protect sched_lock (fun () -> incr conns);
    let rec loop () =
      let i =
        Mutex.protect sched_lock (fun () ->
            let i = !next_session in
            incr next_session;
            i)
      in
      if i < n_sessions then begin
        run_session conn i;
        loop ()
      end
    in
    loop ();
    Wire.close !conn
  in
  let t0 = Unix.times () in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  let t1 = Unix.times () in
  let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
  {
    requests = Array.of_list (List.rev !requests);
    sessions = Array.map Option.get results;
    cpu_s = cpu t1 -. cpu t0;
    connections = !conns;
    domains;
  }

(* The generator process: wait for its input, run, send the results. *)
let generator_main ~input_fd ~output_fd =
  let code =
    try
      let ic = Unix.in_channel_of_descr input_fd in
      let (input : gen_input) = Marshal.from_channel ic in
      let out = run_generator input in
      let oc = Unix.out_channel_of_descr output_fd in
      Marshal.to_channel oc (out : gen_output) [];
      flush oc;
      0
    with
    | End_of_file -> 1 (* the server side gave up before the window *)
    | e ->
        log "perfbench generator: %s" (Printexc.to_string e);
        1
  in
  Unix._exit code

(* --- the server's side --------------------------------------------------- *)

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let engine_config ~segstore =
  {
    Engine.default_config with
    Engine.shards = 2;
    prefetch = Some Prefetch.default_config;
    segstore;
  }

let server_config = { Http.default_server_config with Http.domains = 2 }

(* Counters and histograms read at the window's edges. *)
let window_counters =
  [ "bionav_serve_shed_rate_limited_total"; "bionav_serve_shed_overload_total";
    "bionav_resilience_shed_connections_total"; "bionav_shard_lock_acquisitions_total";
    "bionav_cache_hits_total"; "bionav_cache_misses_total";
    "bionav_prefetch_plan_hits_total"; "bionav_prefetch_plan_misses_total";
    "bionav_prefetch_plan_insertions_total"; "bionav_prefetch_speculations_total";
    "bionav_prefetch_dropped_total"; "bionav_segstore_block_cache_hits_total";
    "bionav_segstore_block_cache_misses_total"; "bionav_segstore_blocks_decoded_total";
    "bionav_docset_interned_sets_total"; "bionav_docset_dedup_hits_total";
    "bionav_docset_memo_hits_total"; "bionav_resilience_retries_total";
    "bionav_resilience_giveups_total"; "bionav_serve_requests_total" ]

let window_histograms =
  [ "bionav_serve_queue_wait_ms"; "bionav_shard_lock_wait_ms"; "bionav_shard_lock_hold_ms";
    "bionav_nav_tree_build_ms"; "bionav_heuristic_cut_ms"; "bionav_opt_edgecut_solve_ms";
    "bionav_prefetch_precompute_latency_ms"; "bionav_segstore_block_decode_ms" ]

let snapshot_window () = Window.take ~counters:window_counters ~histograms:window_histograms

(* Warm hot-zipf's caches before the window. Engine.warm -- the
   deployment's warm start (`bionav warm` + `serve --snapshot`) -- builds
   every Table I tree and root cut once and seeds every shard with them.
   Then each query's oracle path and refined target are walked on plain
   sessions, pass after pass, until one whole pass finds every tree and
   every plan it asks for in the caches (the tree-cache and plan-cache
   miss counters do not move). A pass opens 2 x shards sessions per
   query, so the engine's routing, whatever it is, spreads them over its
   shards. *)
let warm_up engine (w : Q.t) =
  ignore (Engine.warm engine (List.map (fun (q : Q.query) -> q.Q.keyword) w.Q.queries) : _ list);
  let misses () =
    Metrics.value (Metrics.counter "bionav_cache_misses_total")
    + Metrics.value (Metrics.counter "bionav_prefetch_plan_misses_total")
  in
  let walk (q : Q.query) =
    match Engine.search engine q.Q.keyword with
    | Ok (Engine.Session s) ->
        let nav = Engine.session_nav s and target = q.Q.target_node in
        let rec navigate steps =
          let snap = Engine.snapshot s in
          if steps < max_oracle_expands && not (Snap.mem snap target) then begin
            let rec up n = if Snap.mem snap n then n else up (Nav_tree.parent nav n) in
            ignore (Engine.expand s (up target) : int list);
            navigate (steps + 1)
          end
        in
        navigate 0;
        if Snap.mem (Engine.snapshot s) target then ignore (Engine.refine s target : int);
        ignore (Engine.close engine (Engine.session_id s) : bool)
    | Ok Engine.No_results | Error _ -> failwith ("warm-up search failed: " ^ q.Q.keyword)
  in
  let per_query = 2 * Engine.shard_count engine in
  let rec pass n =
    if n > 8 then failwith "warm-up: the caches still missed after 8 passes";
    let before = misses () in
    let t0 = Unix.gettimeofday () in
    List.iter (fun q -> for _ = 1 to per_query do walk q done) w.Q.queries;
    log "perfbench: warm-up pass %d: %d misses, %.2f s" n
      (misses () - before)
      (Unix.gettimeofday () -. t0);
    if misses () > before then pass (n + 1)
  in
  pass 1

(* Title terms with 30-800 results, and two-term AND queries over them
   that still match at least 30 citations: the cold-tail query pool. It
   is ordered for systematic sampling by the number of distinct concepts
   annotating the results (then text): the size of the navigation tree a
   search builds, which sets what the search and its EXPANDs cost. *)
let cold_pool (w : Q.t) =
  let idx = Eutils.index w.Q.eutils in
  let df = Hashtbl.create 16384 in
  Array.iter
    (fun (c : Bionav_corpus.Citation.t) ->
      List.iter
        (fun tok ->
          if not (Hashtbl.mem df tok) then
            Hashtbl.replace df tok (Bionav_search.Inverted_index.document_frequency idx tok))
        (Bionav_search.Tokenizer.unique_tokens c.Bionav_corpus.Citation.title))
    (Bionav_corpus.Medline.citations w.Q.medline);
  let singles =
    Hashtbl.fold (fun t n acc -> if n >= 30 && n <= 800 then t :: acc else acc) df []
    |> List.sort compare |> Array.of_list
  in
  let rng = Rng.create 4242 in
  let pairs = ref [] and tries = ref 0 in
  while List.length !pairs < Array.length singles / 2 && !tries < 20_000 do
    incr tries;
    let a = Rng.choice rng singles and b = Rng.choice rng singles in
    if a < b then begin
      let q = a ^ " " ^ b in
      if Eutils.esearch_count w.Q.eutils q >= 30 then pairs := q :: !pairs
    end
  done;
  let seen = Hashtbl.create 4096 in
  let concepts q =
    Hashtbl.reset seen;
    Docset.iter
      (fun c -> Database.iter_concepts_of_citation w.Q.database c (fun k -> Hashtbl.replace seen k ()))
      (Eutils.esearch w.Q.eutils q);
    Hashtbl.length seen
  in
  Array.append singles (Array.of_list (List.sort_uniq compare !pairs))
  |> Array.map (fun q -> (concepts q, q))
  |> Array.to_list |> List.sort compare |> List.map snd |> Array.of_list

(* Http.serve stops after a fixed number of handler-served requests. The
   server is started with an upper bound on what the window can send;
   afterwards cheap /healthz requests make up the difference. *)
let stop_server ~port ~limit ~served =
  let conn = ref None in
  while Atomic.get served < limit do
    let c = match !conn with Some c -> c | None -> Wire.connect port in
    conn := Some c;
    (* Pipelined in batches: the server answers in order. *)
    let batch = min 64 (limit - Atomic.get served) in
    Wire.write_all c.Wire.fd
      (String.concat "" (List.init batch (fun _ -> "GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n")));
    let closed = ref false in
    for _ = 1 to batch do
      if not !closed then begin
        let status, _, close = Wire.read_response c in
        if status <> 200 then failwith "healthz refused while stopping the server";
        closed := close
      end
    done;
    if !closed then begin
      Wire.close c;
      conn := None
    end
  done;
  Option.iter Wire.close !conn

(* --- reference replay ----------------------------------------------------- *)

type replay_env = {
  app : App.t;
  engine : Engine.t;
  db : Database.t;  (** the backend the engine serves from *)
  store : Store.t option;
  deriver : Nav_space.deriver;
  w : Q.t;
  tracer : Trace.t option;
  hit_starts : float list ref;  (** Engine.search on a tree-cache hit, ms *)
}

let make_replay_env ~segstore ~tracer (w : Q.t) =
  let app =
    App.create ~config:(engine_config ~segstore) ~database:w.Q.database ~eutils:w.Q.eutils ()
  in
  let engine = App.engine app in
  let store = Engine.segstore engine in
  let db =
    match store with
    | Some st -> Bridge.database st (Database.hierarchy w.Q.database)
    | None -> w.Q.database
  in
  { app; engine; db; store; deriver = Nav_space.deriver ~medline:w.Q.medline db; w; tracer;
    hit_starts = ref [] }

let sorted_visible snap = List.sort compare (Snap.visible snap)

(* Replay one checked session; returns mismatch descriptions. With a
   tracer, every action also gets a root span with children around the
   engine call, the page render and the lower layers' public calls. *)
let replay_session env (tr : step list) =
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  let session = ref None in
  let mirrors = ref [] in
  let prev = ref None in
  let hits = Metrics.counter "bionav_cache_hits_total" in
  let span ~rid ~parent name f =
    match env.tracer with
    | None -> f ()
    | Some t -> Trace.with_span t ~rid ~parent name f
  in
  let compare_page (st : step) snap =
    match st.page with
    | None -> ()
    | Some p ->
        if sorted_visible snap <> p.Wire.visible then
          mismatch "request %d: visible nodes differ from the reference" st.srid
        else
          List.iter
            (fun (n, c) ->
              if (Snap.get snap n).Snap.distinct <> c then
                mismatch "request %d: node %d shows %d citations, reference %d" st.srid n c
                  (Snap.get snap n).Snap.distinct)
            p.Wire.counts;
        if Snap.distinct_results snap <> p.Wire.results then
          mismatch "request %d: %d results served, reference %d" st.srid p.Wire.results
            (Snap.distinct_results snap)
  in
  List.iter
    (fun (st : step) ->
      let rid = st.srid in
      let root = match env.tracer with Some t -> Trace.fresh_id t | None -> -1 in
      let t0 = Trace.now_us () in
      let span name f = span ~rid ~parent:root name f in
      (match (st.act, !session) with
      | Search q, _ -> (
          (match env.tracer with
          | None -> ()
          | Some _ ->
              let ids =
                span "search.esearch" (fun () ->
                    Docset_arena.adopt
                      (Bionav_search.Inverted_index.arena (Eutils.index env.w.Q.eutils));
                    Eutils.esearch env.w.Q.eutils q)
              in
              let nav = span "core.tree_build" (fun () -> Nav_tree.of_database env.db ids) in
              Option.iter
                (fun store ->
                  let upto = min 8 (Nav_tree.size nav) in
                  for n = 1 to upto - 1 do
                    ignore
                      (span "segstore.postings" (fun () ->
                           Store.postings store (Nav_tree.concept_id nav n)))
                  done)
                env.store);
          match span "engine.search" (fun () -> Engine.search env.engine q) with
          | Ok (Engine.Session s) ->
              session := Some s;
              compare_page st (Engine.snapshot s);
              mirrors := [ Some (Engine.start (Navigation.bionav ()) (Engine.session_nav s)) ];
              (* Session start on a tree-cache hit: search again until
                 the shard holding the tree serves it (two shards). *)
              if env.tracer <> None then begin
                let rec again k =
                  if k > 0 then begin
                    let h0 = Metrics.value hits in
                    let a = Trace.now_us () in
                    match Engine.search env.engine q with
                    | Ok (Engine.Session s2) ->
                        let ms = (Trace.now_us () -. a) /. 1000. in
                        ignore (Engine.close env.engine (Engine.session_id s2) : bool);
                        if Metrics.value hits > h0 then
                          env.hit_starts := ms :: !(env.hit_starts)
                        else again (k - 1)
                    | _ -> ()
                  end
                in
                again 4
              end
          | Ok Engine.No_results | Error _ -> mismatch "request %d: reference search failed" rid)
      | Expand n, Some s ->
          let revealed =
            span "engine.expand" (fun () -> List.sort compare (Engine.expand s n))
          in
          (match !mirrors with
          | Some m :: _ when env.tracer <> None ->
              (* The mirror repeats the session's expansions on a detached
                 session of the same tree: the cut without the plan cache. *)
              ignore (span "core.cut" (fun () -> Navigation.expand m n) : int list)
          | _ -> ());
          (match (st.page, !prev) with
          | Some p, Some (Some before) ->
              if diff_sorted p.Wire.visible before.Wire.visible <> revealed then
                mismatch "request %d: EXPAND %d revealed different nodes" rid n
          | _ -> ());
          compare_page st (Engine.snapshot s)
      | Refine n, Some s ->
          if env.tracer <> None then begin
            let subset = Nav_tree.subtree_results (Engine.session_nav s) n in
            ignore
              (span "core.derive_descriptor" (fun () ->
                   Nav_space.derive env.deriver Nav_space.Descriptor subset));
            ignore
              (span "core.derive_qualifier" (fun () ->
                   Nav_space.derive env.deriver Nav_space.Qualifier_facet subset))
          end;
          let count = span "engine.refine" (fun () -> Engine.refine s n) in
          (match st.page with
          | Some p when p.Wire.results <> count ->
              mismatch "request %d: refine on %d served %d results, reference %d" rid n
                p.Wire.results count
          | _ -> ());
          mirrors := Some (Engine.start (Navigation.bionav ()) (Engine.session_nav s)) :: !mirrors;
          compare_page st (Engine.snapshot s)
      | Facets, Some s ->
          if env.tracer <> None then begin
            let nav = Engine.session_nav s in
            let subset = Nav_tree.subtree_results nav (Nav_tree.root nav) in
            ignore
              (span "core.derive_qualifier" (fun () ->
                   Nav_space.derive env.deriver Nav_space.Qualifier_facet subset))
          end;
          let pages = span "engine.facet" (fun () -> Engine.facet s) in
          let nav = Engine.session_nav s in
          let nonempty =
            List.length
              (List.filter
                 (fun c -> Nav_tree.subtree_distinct nav c > 0)
                 (Nav_tree.children nav (Nav_tree.root nav)))
          in
          if pages <> nonempty then
            mismatch "request %d: %d facet pages, the facet tree has %d" rid pages nonempty;
          mirrors := None :: !mirrors;
          compare_page st (Engine.snapshot s)
      | Unrefine, Some s ->
          ignore (span "engine.unrefine" (fun () -> Engine.unrefine s) : bool);
          (match !mirrors with _ :: (_ :: _ as rest) -> mirrors := rest | _ -> ());
          compare_page st (Engine.snapshot s)
      | Read_session, Some s ->
          let snap =
            span "search.snapshot_read" (fun () ->
                match Engine.find_session env.engine (Engine.session_id s) with
                | Some s -> Engine.snapshot s
                | None -> failwith "reference session vanished")
          in
          compare_page st snap
      | Read_show n, Some s ->
          let count =
            span "search.snapshot_read" (fun () ->
                match Snap.find (Engine.snapshot s) n with
                | Some v -> Docset.cardinal v.Snap.results
                | None -> -1)
          in
          if count <> st.shown then
            mismatch "request %d: results page of %d lists %d citations, reference %d" rid n
              st.shown count
      | _, None -> mismatch "request %d: action before any session" rid);
      (* The page the app renders after the action, timed from outside. *)
      (match (env.tracer, !session) with
      | Some _, Some s when st.page <> None ->
          ignore
            (span "web.render" (fun () ->
                 App.handle env.app ~path:"/session" ~query:[ ("sid", Engine.session_id s) ]))
      | _ -> ());
      (match env.tracer with
      | Some t ->
          Trace.add t
            { Trace.id = root; parent = -1; rid; name = "replay." ^ kind_name (kind_of st.act);
              t0; t1 = Trace.now_us () }
      | None -> ());
      if st.page <> None then prev := Some st.page)
    tr;
  (match !session with
  | Some s -> ignore (Engine.close env.engine (Engine.session_id s) : bool)
  | None -> ());
  List.rev !mismatches

(* --- reporting ------------------------------------------------------------- *)

let commit () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      Option.value (read (Filename.concat ".git" r)) ~default:("unresolved " ^ r)
  | Some sha -> sha
  | None -> "unknown (not a git checkout)"

(* Digest of the sources the benchmark builds, so a result names the
   code it measured even outside a git checkout. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c"; "dune" ] then [ p ]
           else [])
  in
  let all = List.concat_map (fun d -> if Sys.file_exists d then files d else []) [ "lib"; "perfbench" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\000" (List.map (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file f)) all)))

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         l)
  ^ "}"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref default_seconds and trace = ref 0 in
  let offered = ref 0. in
  let spec =
    [ ("--workload", Arg.Set_string workload, "hot-zipf | cold-tail");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--rate", Arg.Set_float offered,
       "sessions per second instead of the workload's own rate (to locate the knee; \
        results at another rate are not comparable)") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match workload_of_name !workload with
  | None ->
      log "perfbench: unknown workload %S" !workload;
      exit 2
  | Some w ->
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !offered < 0. then begin
        log "perfbench: --seconds must be >= 1, --trace 0 or 1 and --rate positive";
        exit 2
      end;
      (w, !seed, float_of_int !seconds, !trace = 1, if !offered > 0. then !offered else rate w)

let main () =
  let t_process = Unix.gettimeofday () in
  let workload, seed, seconds, tracing, offered = parse_args () in
  (* Fork the generator before anything else: no domain exists yet and
     the child stays small (the corpus is built after the fork). *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  let child =
    match Unix.fork () with
    | 0 ->
        Unix.close in_w;
        Unix.close out_r;
        generator_main ~input_fd:in_r ~output_fd:out_w
    | pid ->
        Unix.close in_r;
        Unix.close out_w;
        pid
  in
  let input_oc = Unix.out_channel_of_descr in_w in
  let reap () =
    (try close_out input_oc with Sys_error _ -> ());
    ignore (Unix.waitpid [] child)
  in
  let seg_dir = Filename.concat out_dir (Printf.sprintf "seg-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      (try reap () with Unix.Unix_error _ -> ());
      try rm_rf seg_dir with Sys_error _ -> ())
  @@ fun () ->
  mkdir_p out_dir;
  (* --- set-up: corpus, index, (ingest), engine, server, warm-up ------- *)
  let w = Q.build ~seed:corpus_seed () in
  let t_corpus = Unix.gettimeofday () in
  let ingest_s, seg_bytes, seg_assocs, segstore =
    match workload with
    | Cold_tail ->
        let t0 = Unix.gettimeofday () in
        let s = Ingest.ingest_medline ~dir:seg_dir w.Q.medline in
        let dt = Unix.gettimeofday () -. t0 in
        let budget = max 4096 (s.Ingest.bytes / 10) in
        ( dt, s.Ingest.bytes, s.Ingest.n_associations,
          Some (Store.spec ~config:{ Store.default_config with Store.cache_budget_bytes = budget } seg_dir) )
    | Hot_zipf -> (0., 0, 0, None)
  in
  let app =
    App.create ~config:(engine_config ~segstore) ~database:w.Q.database ~eutils:w.Q.eutils ()
  in
  let engine = App.engine app in
  let served = Atomic.make 0 in
  let server_tr = Trace.create ~first_id:1_000_000_000 in
  let trace_cost = Atomic.make 0 in
  let handler ~path ~query =
    if tracing then begin
      let t0 = Trace.now_us () in
      let r = App.handle app ~path ~query in
      let t1 = Trace.now_us () in
      (match Option.bind (List.assoc_opt "rid" query) int_of_string_opt with
      | Some rid ->
          Trace.add server_tr
            { Trace.id = Trace.fresh_id server_tr; parent = rid; rid; name = "web.handle"; t0; t1 };
          Atomic.fetch_and_add trace_cost (int_of_float (Trace.now_us () -. t1)) |> ignore
      | None -> ());
      Atomic.incr served;
      r
    end
    else begin
      let r = App.handle app ~path ~query in
      Atomic.incr served;
      r
    end
  in
  let n_sessions = max 1 (int_of_float (offered *. seconds)) in
  let limit = n_sessions * max_requests_per_session workload in
  (* The generator's input is not part of set-up; its preparation time
     is taken out of setup_s. *)
  let t_prep = Unix.gettimeofday () in
  let table1 =
    Array.of_list
      (List.map
         (fun (q : Q.query) ->
           { keyword = q.Q.keyword;
             parents = Array.init (Nav_tree.size q.Q.nav) (Nav_tree.parent q.Q.nav);
             target = q.Q.target_node })
         w.Q.queries)
  in
  let pool = match workload with Cold_tail -> cold_pool w | Hot_zipf -> [||] in
  let prep_s = Unix.gettimeofday () -. t_prep in
  let spec_domain = Engine.spawn_prefetch_domain engine ~budget:4 in
  let t_engine = Unix.gettimeofday () in
  if workload = Hot_zipf then warm_up engine w;
  (* Let lazy set-up finish before the window: run the speculation the
     warm-up queued, and the set-up's garbage collection, so that every
     window starts from the same state instead of inheriting a backlog
     or a major cycle the corpus build left half done. *)
  while Engine.prefetch_tick engine ~budget:64 > 0 do
    ()
  done;
  Gc.full_major ();
  (* The server runs on the main domain, as `bionav serve` runs it; a
     thread of this domain drives the window and, whatever happens,
     makes the server stop so that Http.serve returns. *)
  let port_box = Atomic.make 0 and t_ready = ref 0. in
  let window = ref (Error (Failure "the window did not run")) in
  let coordinator () =
    while Atomic.get port_box = 0 do
      Thread.delay 0.002
    done;
    let port = Atomic.get port_box in
    (window :=
       try
         let before = snapshot_window () in
         let cpu0 = Unix.times () in
         let start = Unix.gettimeofday () +. 0.05 in
         Marshal.to_channel input_oc
           { g_workload = workload; g_seed = seed; g_seconds = seconds; g_rate = offered;
             g_trace = tracing; g_port = port; g_start = start; g_table1 = table1; g_pool = pool }
           [];
         flush input_oc;
         let (out : gen_output) =
           try Marshal.from_channel (Unix.in_channel_of_descr out_r)
           with End_of_file -> failwith "the load generator died"
         in
         let after = snapshot_window () in
         let cpu1 = Unix.times () in
         let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
         Ok
           ( out, Window.between before after, cpu cpu1 -. cpu cpu0, Atomic.get served,
             float_of_int (Procinfo.peak_rss_bytes ()) /. 1048576., Engine.docset_stats engine )
       with e -> Error e);
    try stop_server ~port ~limit ~served
    with e ->
      (* Http.serve would never return: give up on the whole run. *)
      log "perfbench: could not stop the server: %s" (Printexc.to_string e);
      (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
      Unix._exit 1
  in
  let coordinator = Thread.create coordinator () in
  Http.serve ~config:server_config
    ~on_ready:(fun ~port ->
      t_ready := Unix.gettimeofday ();
      Atomic.set port_box port)
    ~max_requests:limit ~port:0 handler;
  Thread.join coordinator;
  Engine.stop_prefetch_domain spec_domain;
  reap ();
  let setup_s = !t_ready -. t_process -. prep_s in
  log "perfbench: %s seed %d: ready in %.2f s (corpus %.2f s, ingest %.2f s, warm-up %.2f s)"
    (workload_name workload) seed setup_s (t_corpus -. t_process) ingest_s
    (!t_ready -. t_engine);
  let out, d, server_cpu_s, window_served, peak_rss_mb, docstats =
    match !window with Ok r -> r | Error e -> raise e
  in

  (* --- check the served pages against a fresh engine -------------------- *)
  let replay_tr = Trace.create ~first_id:2_000_000_000 in
  let env = make_replay_env ~segstore ~tracer:(if tracing then Some replay_tr else None) w in
  let mismatches =
    Array.to_list out.sessions
    |> List.concat_map (fun s ->
           match s.transcript with
           | Some tr when s.problems = [] -> replay_session env tr
           | _ -> [])
  in
  let problems = Array.to_list out.sessions |> List.concat_map (fun s -> s.problems) in
  List.iteri (fun i m -> if i < 5 then log "perfbench: MISMATCH %s" m) mismatches;
  List.iteri (fun i m -> if i < 5 then log "perfbench: FAILED %s" m) problems;
  (* --- end-to-end metrics -------------------------------------------- *)
  let reqs = out.requests in
  let attempted = Array.length reqs in
  let non_ok = Array.fold_left (fun n r -> if r.status <> 200 then n + 1 else n) 0 reqs in
  let failed = max non_ok (List.length problems) + List.length mismatches in
  (* Latency of every request of one kind (all kinds for [None]). *)
  let latencies k =
    Array.of_list
      (List.filter_map
         (fun r ->
           if k = None || k = Some r.kind then Some (latency_ms r)
           else None)
         (Array.to_list reqs))
  in
  let errors = ref [] in
  let pct name k p =
    let xs = latencies k in
    match Quantile.checked ~what:name xs p with
    | Ok v -> (name, "ms", v)
    | Error e ->
        errors := e :: !errors;
        (name, "ms", 0.)
  in
  let costs = Array.map (fun s -> float_of_int s.nav_cost) out.sessions in
  let e2e =
    [ ("setup_s", "s", setup_s);
      ("ok_rate", "ratio", float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
      ("nav_cost_mean", "actions", Quantile.mean costs);
      ("peak_rss_mb", "MiB", peak_rss_mb) ]
  in
  (* The latency medians: printed on every run, but carried as metrics
     only by the traced run, because their run-to-run spread on a shared
     2-core box is wider than any bound the benchmark may set
     (README.md, "Stability"). *)
  let latency =
    [ pct "search_p50_ms" (Some K_search) 0.5;
      pct "expand_p50_ms" (Some K_expand) 0.5;
      pct "refine_p50_ms" (Some K_refine) 0.5;
      pct "read_p50_ms" (Some K_read) 0.5 ]
  in
  let late = Array.map (fun r -> (r.sent -. r.due) *. 1000.) reqs in
  let late_p95 =
    match Quantile.checked ~what:"loadgen.late_p95_ms" late 0.95 with
    | Ok v -> v
    | Error e ->
        errors := e :: !errors;
        0.
  in
  let cpu_us_per_request = out.cpu_s *. 1e6 /. float_of_int (max 1 attempted) in
  (* --- per-layer metrics (traced run) ---------------------------------- *)
  let per_layer () =
    let client_tr = Trace.create ~first_id:0 in
    Array.iter
      (fun r ->
        Trace.add client_tr
          { Trace.id = r.rid; parent = -1; rid = r.rid; name = "client." ^ kind_name r.kind;
            t0 = r.sent *. 1e6; t1 = r.finished *. 1e6 })
      reqs;
    let spans = Trace.spans client_tr @ Trace.spans server_tr @ Trace.spans replay_tr in
    let selfs = Trace.self_times spans in
    let negative = List.filter (fun (_, s) -> s < 0.) selfs in
    List.iteri
      (fun i ((s : Trace.span), v) ->
        if i < 5 then log "perfbench: span %s (rid %d) has self time %.4f ms" s.Trace.name s.Trace.rid v)
      negative;
    let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) spans in
    let durs n = Array.of_list (List.map Trace.duration_ms (named n)) in
    let handle_by_rid = Hashtbl.create 4096 in
    List.iter (fun (s : Trace.span) -> Hashtbl.replace handle_by_rid s.Trace.parent s) (named "web.handle");
    let transport =
      Array.of_list
        (List.filter_map
           (fun r ->
             Option.map
               (fun h -> ((r.finished -. r.sent) *. 1000.) -. Trace.duration_ms h)
               (Hashtbl.find_opt handle_by_rid r.rid))
           (Array.to_list reqs))
    in
    let q name xs p =
      match Quantile.checked ~what:name xs p with
      | Ok v -> v
      | Error e ->
          errors := e :: !errors;
          0.
    in
    let mean xs = Quantile.mean xs in
    let us xs = Array.map (fun x -> x *. 1000.) xs in
    let counter = Window.counter d and hmean = Window.hist_mean d in
    let span_file =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" (workload_name workload) seed)
    in
    Trace.write_jsonl span_file spans;
    log "perfbench: %d spans written to %s" (List.length spans) span_file;
    ( List.length negative,
      latency
      @ [ ("web.transport_ms_p50", "ms", q "web.transport_ms_p50" transport 0.5);
        ("web.queue_wait_ms_mean", "ms", hmean "bionav_serve_queue_wait_ms");
        ("web.handler_ms_p50", "ms", q "web.handler_ms_p50" (durs "web.handle") 0.5);
        ("web.handler_ms_p95", "ms", q "web.handler_ms_p95" (durs "web.handle") 0.95);
        ("web.render_ms_p50", "ms", q "web.render_ms_p50" (durs "web.render") 0.5);
        ("web.response_kb_mean", "KiB",
         mean (Array.map (fun r -> float_of_int r.bytes /. 1024.) reqs));
        ("web.shed_total", "count",
         float_of_int
           (counter "bionav_serve_shed_rate_limited_total"
           + counter "bionav_serve_shed_overload_total"
           + counter "bionav_resilience_shed_connections_total"));
        ("engine.session_start_ms_p50", "ms",
         q "engine.session_start_ms_p50" (Array.of_list !(env.hit_starts)) 0.5);
        ("engine.search_ms_mean", "ms", mean (durs "engine.search"));
        ("engine.expand_ms_mean", "ms", mean (durs "engine.expand"));
        ("engine.refine_ms_mean", "ms", mean (durs "engine.refine"));
        ("engine.lock_wait_ms_mean", "ms", hmean "bionav_shard_lock_wait_ms");
        ("engine.lock_hold_ms_mean", "ms", hmean "bionav_shard_lock_hold_ms");
        ("engine.lock_acquisitions", "count",
         float_of_int (counter "bionav_shard_lock_acquisitions_total"));
        ("search.esearch_us_mean", "us", mean (us (durs "search.esearch")));
        ("search.snapshot_read_us_p50", "us",
         q "search.snapshot_read_us_p50" (us (durs "search.snapshot_read")) 0.5);
        ("core.tree_cache_hit_rate", "ratio",
         Window.ratio (counter "bionav_cache_hits_total")
           (counter "bionav_cache_hits_total" + counter "bionav_cache_misses_total"));
        ("core.tree_builds", "count", float_of_int (Window.hist_count d "bionav_nav_tree_build_ms"));
        ("core.tree_build_ms_mean", "ms", mean (durs "core.tree_build"));
        ("core.cut_ms_mean", "ms", mean (durs "core.cut"));
        ("core.cut_ms_p50", "ms", q "core.cut_ms_p50" (durs "core.cut") 0.5);
        ("core.opt_edgecut_ms_mean", "ms", hmean "bionav_opt_edgecut_solve_ms");
        ("core.derive_descriptor_ms_mean", "ms", mean (durs "core.derive_descriptor"));
        ("core.derive_qualifier_ms_mean", "ms", mean (durs "core.derive_qualifier"));
        ("prefetch.plan_hit_rate", "ratio",
         Window.ratio (counter "bionav_prefetch_plan_hits_total")
           (counter "bionav_prefetch_plan_hits_total" + counter "bionav_prefetch_plan_misses_total"));
        ("prefetch.plan_useful_ratio", "ratio",
         Window.ratio (counter "bionav_prefetch_plan_hits_total")
           (counter "bionav_prefetch_plan_insertions_total"));
        ("prefetch.speculations", "count", float_of_int (counter "bionav_prefetch_speculations_total"));
        ("prefetch.dropped", "count", float_of_int (counter "bionav_prefetch_dropped_total"));
        ("prefetch.precompute_ms_mean", "ms", hmean "bionav_prefetch_precompute_latency_ms");
        ("segstore.ingest_s", "s", ingest_s);
        ("segstore.bytes_per_assoc", "B",
         if seg_assocs = 0 then 0. else float_of_int seg_bytes /. float_of_int seg_assocs);
        ("segstore.block_cache_hit_rate", "ratio",
         Window.ratio (counter "bionav_segstore_block_cache_hits_total")
           (counter "bionav_segstore_block_cache_hits_total"
           + counter "bionav_segstore_block_cache_misses_total"));
        ("segstore.blocks_decoded", "count", float_of_int (counter "bionav_segstore_blocks_decoded_total"));
        ("segstore.decode_ms_mean", "ms", hmean "bionav_segstore_block_decode_ms");
        ("segstore.postings_us_mean", "us", mean (us (durs "segstore.postings")));
        ("docset.resident_mb", "MiB", float_of_int docstats.Docset_arena.bytes /. 1048576.);
        ("docset.dedup_hit_rate", "ratio",
         Window.ratio (counter "bionav_docset_dedup_hits_total")
           (counter "bionav_docset_interned_sets_total"));
        ("docset.memo_hits", "count", float_of_int (counter "bionav_docset_memo_hits_total"));
        ("resilience.retries", "count", float_of_int (counter "bionav_resilience_retries_total"));
        ("resilience.giveups", "count", float_of_int (counter "bionav_resilience_giveups_total"));
        ("runtime.minor_kb_per_request", "KiB",
         Window.minor_words d *. float_of_int (Sys.word_size / 8) /. 1024.
         /. float_of_int (max 1 window_served));
        ("runtime.major_gcs", "count", float_of_int (Window.major_collections d));
        ("loadgen.late_p95_ms", "ms", late_p95);
        ("loadgen.cpu_us_per_request", "us", cpu_us_per_request);
        ("trace.record_us_per_request", "us",
         float_of_int (Atomic.get trace_cost) /. float_of_int (max 1 attempted));
        ("trace.negative_self_spans", "count", float_of_int (List.length negative)) ] )
  in
  let negative, metrics = if tracing then per_layer () else (0, e2e) in
  let samples k = Array.length (latencies (Some k)) in
  let provenance =
    Printf.sprintf
      "{\"provenance\": {\"commit\": %S, \"source_digest\": %S, \"nproc\": %d, \"ocaml\": %S, \
       \"corpus\": \"Queries.default_config (48k concepts, 60k citations), corpus seed %d\", \
       \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"offered_rate_sessions_per_s\": %g, \
       \"sessions\": %d, \"requests\": %d, \"generator_domains\": %d, \
       \"generator_connections_opened\": %d, \"quantile_rule\": \"nearest rank, >= 10 samples beyond\", \
       \"samples\": {\"search\": %d, \"expand\": %d, \"refine\": %d, \"read\": %d, \"space\": %d, \
       \"sessions\": %d, \"loadgen_late\": %d}}, \
       \"extra\": {\"error_rate\": %s, \"failed_status\": %d, \"failed_checks\": %d, \
       \"mismatches\": %d, \"checked_sessions\": %d, \"loadgen.late_p95_ms\": %s, \
       \"loadgen.cpu_us_per_request\": %s, \"setup.corpus_s\": %s, \"setup.ingest_s\": %s, \
       \"server_cpu_ms_per_session\": %s, \"window_minor_gcs\": %d, \"window_major_gcs\": %d, \
       \"window_speculations\": %d, \"window_precompute_ms\": %s}}"
      (commit ()) (source_digest ()) (Domain.recommended_domain_count ()) Sys.ocaml_version
      corpus_seed (workload_name workload) seed seconds offered (Array.length out.sessions)
      attempted out.domains out.connections (samples K_search) (samples K_expand)
      (samples K_refine) (samples K_read) (samples K_space) (Array.length out.sessions)
      (Array.length late)
      (json_num (float_of_int failed /. float_of_int (max 1 attempted)))
      non_ok (List.length problems) (List.length mismatches)
      (Array.fold_left (fun n s -> if s.transcript <> None then n + 1 else n) 0 out.sessions)
      (json_num late_p95) (json_num cpu_us_per_request)
      (json_num (t_corpus -. t_process)) (json_num ingest_s)
      (json_num (server_cpu_s *. 1000. /. float_of_int (max 1 (Array.length out.sessions))))
      (Window.minor_collections d) (Window.major_collections d)
      (Window.counter d "bionav_prefetch_speculations_total")
      (json_num (Window.hist_sum d "bionav_prefetch_precompute_latency_ms"))
  in
  (* Latency is reported, not gated: on a 2-core box the run-to-run
     spread of its medians and tails is wider than any bound the benchmark
     may set (README.md). Per kind: the median and the highest of
     p99/p95/p90 with ten samples beyond it, and the sample count. *)
  let tail xs =
    let n = Array.length xs in
    let p50 =
      if Quantile.emittable 0.5 n then
        Printf.sprintf "\"p50_ms\": %s, " (json_num (Quantile.quantile xs 0.5))
      else ""
    in
    match List.find_opt (fun p -> Quantile.emittable p n) [ 0.99; 0.95; 0.9 ] with
    | None -> Printf.sprintf "{%s\"samples\": %d}" p50 n
    | Some p ->
        Printf.sprintf "{%s\"tail_p\": %g, \"tail_ms\": %s, \"samples\": %d}" p50 (p *. 100.)
          (json_num (Quantile.quantile xs p)) n
  in
  let tails =
    Printf.sprintf "{\"latency\": {%s}}"
      (String.concat ", "
         (List.map
            (fun (name, k) -> Printf.sprintf "%S: %s" name (tail (latencies k)))
            [ ("search", Some K_search); ("expand", Some K_expand); ("refine", Some K_refine);
              ("read", Some K_read); ("space", Some K_space); ("request", None) ]))
  in
  print_endline provenance;
  print_endline tails;
  List.iter (fun e -> log "perfbench: %s" e) !errors;
  if !errors <> [] then begin
    log "perfbench: too few samples for the metrics above; no result (measured: %s)"
      (json_metrics metrics);
    3
  end
  else begin
    let correct = failed = 0 && negative = 0 in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
      correct attempted failed (json_metrics metrics);
    if correct then 0 else 1
  end

let () =
  let code =
    try main ()
    with e ->
      log "perfbench: %s" (Printexc.to_string e);
      1
  in
  exit code
