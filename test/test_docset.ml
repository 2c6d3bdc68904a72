(* The docset layer: interned, arena-backed result sets — arena storage
   semantics (dedup, representations, memoization) and handle semantics
   (cross-arena equality, rebasing, algebra). *)

open Bionav_util
module A = Docset_arena

let sorted l = List.sort_uniq compare l

(* --- arena ------------------------------------------------------------- *)

let test_empty_preinterned () =
  let a = A.create () in
  Alcotest.(check int) "empty id" A.empty_id (A.intern a [||]);
  Alcotest.(check int) "empty cardinal" 0 (A.cardinal a A.empty_id);
  Alcotest.(check (list int)) "no elements" [] (Array.to_list (A.to_array a A.empty_id))

let test_intern_dedups () =
  let a = A.create () in
  let id1 = A.intern a [| 1; 5; 9 |] in
  let id2 = A.intern a [| 1; 5; 9 |] in
  let id3 = A.intern a [| 1; 5; 10 |] in
  Alcotest.(check int) "same content same id" id1 id2;
  Alcotest.(check bool) "different content different id" true (id1 <> id3);
  let st = A.stats a in
  Alcotest.(check int) "one dedup hit" 1 st.A.dedup_hits;
  Alcotest.(check int) "empty + two distinct" 3 st.A.sets

let test_intern_rejects_unsorted () =
  let a = A.create () in
  Alcotest.check_raises "unsorted" (Invalid_argument "Docset_arena.intern: array must be sorted strictly increasing")
    (fun () -> ignore (A.intern a [| 3; 1 |]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Docset_arena.intern: array must be sorted strictly increasing")
    (fun () -> ignore (A.intern a [| 1; 1 |]))

let test_representations () =
  let a = A.create () in
  (* A contiguous run packs dense; scattered points stay sparse; negative
     elements force sparse. *)
  let dense = A.intern a (Array.init 100 Fun.id) in
  let sparse = A.intern a [| 0; 1000; 50000 |] in
  let negative = A.intern a [| -5; 0; 3 |] in
  let st = A.stats a in
  Alcotest.(check bool) "has dense" true (st.A.dense >= 1);
  Alcotest.(check bool) "has sparse" true (st.A.sparse >= 2);
  Alcotest.(check int) "dense cardinal" 100 (A.cardinal a dense);
  Alcotest.(check (list int)) "dense roundtrip" (List.init 100 Fun.id)
    (Array.to_list (A.to_array a dense));
  Alcotest.(check (list int)) "sparse roundtrip" [ 0; 1000; 50000 ]
    (Array.to_list (A.to_array a sparse));
  Alcotest.(check (list int)) "negative roundtrip" [ -5; 0; 3 ]
    (Array.to_list (A.to_array a negative));
  Alcotest.(check bool) "bytes accounted" true (st.A.bytes > 0)

let test_queries () =
  let a = A.create () in
  let id = A.intern a [| 2; 4; 8 |] in
  Alcotest.(check bool) "mem yes" true (A.mem a id 4);
  Alcotest.(check bool) "mem no" false (A.mem a id 5);
  Alcotest.(check int) "choose" 2 (A.choose a id);
  Alcotest.(check int) "fold sum" 14 (A.fold a id ( + ) 0);
  Alcotest.(check bool) "equal_array" true (A.equal_array a id [| 2; 4; 8 |]);
  Alcotest.(check bool) "equal_array no" false (A.equal_array a id [| 2; 4 |]);
  Alcotest.check_raises "choose empty" Not_found (fun () -> ignore (A.choose a A.empty_id))

let test_algebra_memoized () =
  let a = A.create () in
  let x = A.intern a [| 1; 2; 3; 4 |] in
  let y = A.intern a [| 3; 4; 5 |] in
  let u1 = A.union a x y in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ] (Array.to_list (A.to_array a u1));
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (Array.to_list (A.to_array a (A.inter a x y)));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Array.to_list (A.to_array a (A.diff a x y)));
  let before = (A.stats a).A.memo_hits in
  let u2 = A.union a x y in
  let u3 = A.union a y x in
  Alcotest.(check int) "repeat is same id" u1 u2;
  Alcotest.(check int) "commutative memo" u1 u3;
  Alcotest.(check bool) "memo hits grew" true ((A.stats a).A.memo_hits > before)

let test_cardinal_family () =
  let a = A.create () in
  (* Mixed representations: dense/dense, dense/sparse, sparse/sparse. *)
  let d1 = A.intern a (Array.init 64 Fun.id) in
  let d2 = A.intern a (Array.init 64 (fun i -> i + 32)) in
  let s1 = A.intern a [| 5; 40; 900 |] in
  let s2 = A.intern a [| 40; 900; 7777 |] in
  let check name p q =
    let inter = A.cardinal a (A.inter a p q) and union = A.cardinal a (A.union a p q) in
    Alcotest.(check int) (name ^ " inter_cardinal") inter (A.inter_cardinal a p q);
    Alcotest.(check int) (name ^ " union_cardinal") union (A.union_cardinal a p q)
  in
  check "dense/dense" d1 d2;
  check "dense/sparse" d1 s1;
  check "sparse/dense" s1 d2;
  check "sparse/sparse" s1 s2;
  Alcotest.(check bool) "subset yes" true (A.subset a (A.inter a d1 d2) d1);
  Alcotest.(check bool) "subset no" false (A.subset a d1 d2)

let test_union_many_arena () =
  let a = A.create () in
  let ids = List.map (A.intern a) [ [| 1; 2 |]; [| 2; 3 |]; [| 9 |]; [| 1; 2 |] ] in
  let u = A.union_many a ids in
  Alcotest.(check (list int)) "union_many" [ 1; 2; 3; 9 ] (Array.to_list (A.to_array a u));
  Alcotest.(check int) "empty operands" A.empty_id (A.union_many a []);
  Alcotest.(check int) "singleton operand" (List.hd ids) (A.union_many a [ List.hd ids ])

(* --- handles ------------------------------------------------------------ *)

let test_handle_basics () =
  let s = Docset.of_list [ 5; 1; 5; 3 ] in
  Alcotest.(check (list int)) "sorted deduped" [ 1; 3; 5 ] (Docset.elements s);
  Alcotest.(check int) "cardinal" 3 (Docset.cardinal s);
  Alcotest.(check bool) "mem" true (Docset.mem 3 s);
  Alcotest.(check int) "choose" 1 (Docset.choose s);
  Alcotest.(check bool) "empty is empty" true (Docset.is_empty Docset.empty);
  Alcotest.(check bool) "singleton" true (Docset.elements (Docset.singleton 7) = [ 7 ])

let test_handle_equal_cross_arena () =
  let arena = A.create () in
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_list_in arena [ 3; 2; 1 ] in
  Alcotest.(check bool) "equal across arenas" true (Docset.equal a b);
  Alcotest.(check int) "same fingerprint" (Docset.fingerprint a) (Docset.fingerprint b);
  Alcotest.(check int) "compare 0" 0 (Docset.compare a b);
  let c = Docset.of_list [ 1; 2; 4 ] in
  Alcotest.(check bool) "unequal" false (Docset.equal a c);
  Alcotest.(check bool) "compare consistent" true (Docset.compare a c <> 0)

let test_handle_rebase () =
  let arena = A.create () in
  let a = Docset.of_list [ 1; 2; 3 ] in
  let a' = Docset.in_arena arena a in
  Alcotest.(check bool) "lives in target" true (Docset.arena a' == arena);
  Alcotest.(check bool) "same content" true (Docset.equal a a');
  Alcotest.(check bool) "no-op when already there" true (Docset.in_arena arena a' == a')

let test_handle_algebra_cross_arena () =
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_list [ 3; 4 ] in
  (* Distinct private arenas: the op must rebase and still be right. *)
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Docset.elements (Docset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Docset.elements (Docset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Docset.elements (Docset.diff a b));
  Alcotest.(check int) "inter_cardinal" 1 (Docset.inter_cardinal a b);
  Alcotest.(check int) "union_cardinal" 4 (Docset.union_cardinal a b);
  Alcotest.(check bool) "subset" true (Docset.subset (Docset.inter a b) b);
  Alcotest.(check bool) "union with empty" true
    (Docset.equal a (Docset.union a Docset.empty));
  Alcotest.(check bool) "empty union" true (Docset.equal a (Docset.union Docset.empty a))

let test_handle_union_many () =
  let sets = List.map Docset.of_list [ [ 1; 2 ]; []; [ 2; 9 ]; [ 0 ] ] in
  Alcotest.(check (list int)) "union_many" [ 0; 1; 2; 9 ]
    (Docset.elements (Docset.union_many sets));
  Alcotest.(check bool) "all empty" true (Docset.is_empty (Docset.union_many []))

let test_consolidate () =
  let sets = Array.of_list (List.map Docset.of_list [ [ 1; 2 ]; [ 2; 3 ]; [ 9 ] ]) in
  let c = Docset.consolidate sets in
  let home = Docset.arena c.(0) in
  Array.iter (fun s -> Alcotest.(check bool) "one arena" true (Docset.arena s == home)) c;
  Array.iteri
    (fun i s -> Alcotest.(check bool) "content kept" true (Docset.equal sets.(i) s))
    c

let test_intset_roundtrip () =
  let l = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let s = Docset.of_intset (Intset.of_list l) in
  Alcotest.(check (list int)) "of_intset" (sorted l) (Docset.elements s);
  Alcotest.(check (list int)) "to_intset" (sorted l) (Intset.elements (Docset.to_intset s))

let test_fingerprint_of_algebra () =
  (* A set produced by algebra fingerprints identically to the same set
     interned directly — plan-cache keys depend on this. *)
  let u = Docset.union (Docset.of_list [ 1; 2 ]) (Docset.of_list [ 2; 3 ]) in
  let direct = Docset.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fingerprints agree" (Docset.fingerprint direct) (Docset.fingerprint u)

(* --- concurrency --------------------------------------------------------- *)

(* k domains intern overlapping random sets into one shared arena (each in
   its own order) and run the set algebra on every pair. Afterwards the
   arena must look as if one domain had done it all: structurally equal
   sets share one id, every result matches the Intset oracle, and the
   arena holds exactly the distinct sets that were interned. *)
let prop_shared_arena =
  QCheck.Test.make ~name:"k domains share one arena" ~count:25
    QCheck.(
      pair (int_range 2 4)
        (list_of_size Gen.(int_range 2 10) (list_of_size Gen.(int_range 0 40) (int_range 0 200))))
    (fun (k, lists) ->
      let arena = A.create () in
      let inputs = Array.of_list (List.map (fun l -> Array.of_list (sorted l)) lists) in
      let n = Array.length inputs in
      let work d () =
        let ids = Array.make n A.empty_id in
        for j = 0 to n - 1 do
          let i = (j + d) mod n in
          ids.(i) <- A.intern arena inputs.(i)
        done;
        let ops = ref [] in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let a = ids.(i) and b = ids.(j) in
            ops :=
              ( (i, j),
                [ A.union arena a b; A.inter arena a b; A.diff arena a b ],
                A.inter_cardinal arena a b )
              :: !ops
          done
        done;
        (ids, List.rev !ops)
      in
      let outs = Array.map Domain.join (Array.init k (fun d -> Domain.spawn (work d))) in
      let ids0, ops0 = outs.(0) in
      let oracle = Array.map (fun a -> Intset.of_sorted_array_unchecked a) inputs in
      let contents id = Array.to_list (A.to_array arena id) in
      let distinct = Hashtbl.create 64 in
      Hashtbl.replace distinct [] ();
      Array.iter (fun id -> Hashtbl.replace distinct (contents id) ()) ids0;
      let same_everywhere = Array.for_all (fun out -> out = outs.(0)) outs in
      let ids_canonical =
        Array.for_all
          (fun i -> Array.for_all (fun j -> (inputs.(i) = inputs.(j)) = (ids0.(i) = ids0.(j)))
              (Array.init n Fun.id))
          (Array.init n Fun.id)
        && Array.for_all2 (fun id input -> contents id = Array.to_list input) ids0 inputs
      in
      let results_match =
        List.for_all
          (fun ((i, j), results, count) ->
            let a = oracle.(i) and b = oracle.(j) in
            List.iter (fun id -> Hashtbl.replace distinct (contents id) ()) results;
            List.map contents results
            = List.map Intset.elements [ Intset.union a b; Intset.inter a b; Intset.diff a b ]
            && count = Intset.inter_cardinal a b)
          ops0
      in
      same_everywhere && ids_canonical && results_match
      && (A.stats arena).A.sets = Hashtbl.length distinct)

(* --- differential against the reference arena ---------------------------- *)

module O = Arena_oracle

(* One step of a script. Operands index the ids the script has produced
   so far (modulo their number), so one script runs on any arena. *)
type step =
  | Intern of int array
  | Union of int * int
  | Inter of int * int
  | Diff of int * int
  | Union_many of int list
  | Import of int array  (* rebase a set held by a private arena *)

(* Dense runs and scattered points over a small universe, so results
   collide with earlier sets (dedup hits) and operations repeat (memo
   hits). *)
let random_set rng =
  let base = Rng.int rng 1500 and span = 1 + Rng.int rng 700 in
  let p = if Rng.bool rng then 0.6 else 0.02 in
  Array.of_list (List.filter (fun _ -> Rng.bernoulli rng p) (List.init span (( + ) base)))

let random_script rng len =
  List.init len (fun i ->
      let pick () = Rng.int rng (i + 1) in
      match Rng.int rng 8 with
      | 0 | 1 -> Intern (random_set rng)
      | 2 -> Union (pick (), pick ())
      | 3 -> Inter (pick (), pick ())
      | 4 -> Diff (pick (), pick ())
      | 5 -> Union_many (List.init (2 + Rng.int rng 3) (fun _ -> pick ()))
      | 6 -> Import (random_set rng)
      | _ -> Union (pick (), pick ()))

(* Run [script]; [ids] starts with the empty set so every index resolves. *)
let run_script ~intern ~union ~inter ~diff ~union_many ~import script =
  let ids = ref [| A.empty_id |] in
  List.iter
    (fun step ->
      let get i = !ids.(i mod Array.length !ids) in
      let id =
        match step with
        | Intern a -> intern a
        | Union (i, j) -> union (get i) (get j)
        | Inter (i, j) -> inter (get i) (get j)
        | Diff (i, j) -> diff (get i) (get j)
        | Union_many l -> union_many (List.map get l)
        | Import a -> import a
      in
      ids := Array.append !ids [| id |])
    script;
  !ids

let run_arena arena =
  run_script ~intern:(A.intern arena) ~union:(A.union arena) ~inter:(A.inter arena)
    ~diff:(A.diff arena) ~union_many:(A.union_many arena) ~import:(fun a ->
      let src = A.create () in
      A.import arena ~src (A.intern src a))

let run_oracle o =
  run_script ~intern:(O.intern o) ~union:(O.union o) ~inter:(O.inter o) ~diff:(O.diff o)
    ~union_many:(O.union_many o) ~import:(fun a ->
      let src = O.create () in
      O.import o ~src (O.intern src a))

(* The in-place kernels intern the same sets under the same ids, with the
   same stats, as the copying reference arena. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"arena = reference arena (ids, contents, stats)" ~count:150
    QCheck.(pair int (int_range 1 80))
    (fun (seed, len) ->
      let script = random_script (Rng.create seed) len in
      let arena = A.create () and o = O.create () in
      let ids = run_arena arena script and oids = run_oracle o script in
      ids = oids
      && Array.for_all (fun id -> A.to_array arena id = O.to_array o id) ids
      && A.stats arena = O.stats o)

(* k domains run their own scripts against one shared arena. Ids then
   depend on the interleaving, so each step is held to the reference
   arena's contents, and the shared arena to one id per distinct set. *)
let prop_matches_reference_domains =
  QCheck.Test.make ~name:"k domains = reference arena (contents)" ~count:25
    QCheck.(triple (int_range 2 4) int (int_range 1 60))
    (fun (k, seed, len) ->
      let scripts = Array.init k (fun d -> random_script (Rng.create (seed + d)) len) in
      let arena = A.create () in
      let outs =
        Array.map Domain.join
          (Array.init k (fun d -> Domain.spawn (fun () -> run_arena arena scripts.(d))))
      in
      let contents_match d =
        let o = O.create () in
        let oids = run_oracle o scripts.(d) in
        Array.for_all2 (fun id oid -> A.to_array arena id = O.to_array o oid) outs.(d) oids
      in
      let st = A.stats arena in
      let distinct = Hashtbl.create 64 in
      for id = 0 to st.A.sets - 1 do
        Hashtbl.replace distinct (A.to_array arena id) ()
      done;
      List.for_all contents_match (List.init k Fun.id) && Hashtbl.length distinct = st.A.sets)

(* A memo hit, a dedup hit and a sorted-array rebase copy no operand:
   every set here is under 256 words, so any copy of one would be a minor
   allocation. *)
let test_hits_allocate_no_operand () =
  let arena = A.create () in
  let sparse k = Array.init 120 (fun i -> (i * 97) + k) in
  let a = A.intern arena (sparse 0) and b = A.intern arena (sparse 1) in
  let dense = A.intern arena (Array.init 120 (fun i -> 20_000 + i)) in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()) : int);
    Gc.minor_words () -. before
  in
  let small = 40. in
  (* Warm the per-domain merge buffers. *)
  ignore (A.union arena a dense : int);
  ignore (A.inter arena a b : int);
  let ab = A.union arena a b in
  let hit = words (fun () -> A.union arena a b) in
  Alcotest.(check bool) (Printf.sprintf "memo hit: %.0f words" hit) true (hit < small);
  (* [a - dense] = [a]: a memo miss whose result is already interned. *)
  let dedup = words (fun () -> A.diff arena a dense) in
  Alcotest.(check int) "diff is a" a (A.diff arena a dense);
  Alcotest.(check bool) (Printf.sprintf "dedup hit: %.0f words" dedup) true (dedup < small);
  (* A slice of a reused buffer that is already interned. *)
  let buf = Array.append [| -1 |] (A.to_array arena ab) in
  let sub = words (fun () -> A.intern_sub arena buf ~off:1 ~len:240) in
  Alcotest.(check bool) (Printf.sprintf "intern_sub hit: %.0f words" sub) true (sub < small);
  Alcotest.(check int) "intern_sub finds the set" ab (A.intern_sub arena buf ~off:1 ~len:240);
  (* Rebasing shares a sorted array. *)
  let target = A.create () in
  let rebase = words (fun () -> A.import target ~src:arena a) in
  Alcotest.(check bool) (Printf.sprintf "rebase: %.0f words" rebase) true (rebase < small);
  Alcotest.(check (array int)) "rebased content" (sparse 0)
    (A.to_array target (A.import target ~src:arena a))

let test_group_in () =
  let arena = A.create () in
  let feed emit = List.iter (fun (k, x) -> emit k x) [ (2, 1); (0, 1); (2, 4); (0, 7); (3, 9) ] in
  let groups = Docset.group_in arena ~n_keys:4 feed in
  Alcotest.(check (list (pair int (list int)))) "ascending groups"
    [ (0, [ 1; 7 ]); (2, [ 1; 4 ]); (3, [ 9 ]) ]
    (List.map (fun (k, s) -> (k, Docset.elements s)) groups);
  Alcotest.(check bool) "interned in the arena" true
    (List.for_all (fun (_, s) -> Docset.arena s == arena) groups);
  (* Intern order: ascending gives increasing ids, descending decreasing. *)
  let ids groups = List.map (fun (_, s) -> Docset.id s) groups in
  Alcotest.(check (list int)) "ascending ids" [ 1; 2; 3 ] (ids groups);
  let desc = Docset.group_in (A.create ()) ~n_keys:4 ~descending:true feed in
  Alcotest.(check (list int)) "descending ids" [ 3; 2; 1 ] (ids desc);
  (* A nested call, as another systhread of the domain could make, works
     in buffers of its own. *)
  let inner = ref [] in
  let outer =
    Docset.group_in arena ~n_keys:4 (fun emit ->
        emit 1 3;
        inner := Docset.group_in arena ~n_keys:4 (fun emit -> emit 2 8; emit 2 9);
        emit 1 6)
  in
  let elements groups = List.map (fun (k, s) -> (k, Docset.elements s)) groups in
  Alcotest.(check (list (pair int (list int)))) "outer" [ (1, [ 3; 6 ]) ] (elements outer);
  Alcotest.(check (list (pair int (list int)))) "inner" [ (2, [ 8; 9 ]) ] (elements !inner);
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Docset.group_in: key 4 outside [0, 4)")
    (fun () -> ignore (Docset.group_in arena ~n_keys:4 (fun emit -> emit 4 0)));
  Alcotest.check_raises "unsorted group"
    (Invalid_argument "Docset.group_in: a key's elements must arrive strictly increasing")
    (fun () -> ignore (Docset.group_in arena ~n_keys:4 (fun emit -> emit 1 5; emit 1 5)))

let () =
  Alcotest.run "docset"
    [
      ( "arena",
        [
          Alcotest.test_case "empty preinterned" `Quick test_empty_preinterned;
          Alcotest.test_case "intern dedups" `Quick test_intern_dedups;
          Alcotest.test_case "intern rejects unsorted" `Quick test_intern_rejects_unsorted;
          Alcotest.test_case "representations" `Quick test_representations;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "algebra memoized" `Quick test_algebra_memoized;
          Alcotest.test_case "cardinal family" `Quick test_cardinal_family;
          Alcotest.test_case "union_many" `Quick test_union_many_arena;
          Alcotest.test_case "hits allocate no operand" `Quick test_hits_allocate_no_operand;
          Alcotest.test_case "group_in" `Quick test_group_in;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
      ( "concurrency",
        [
          QCheck_alcotest.to_alcotest prop_shared_arena;
          QCheck_alcotest.to_alcotest prop_matches_reference_domains;
        ] );
      ( "handle",
        [
          Alcotest.test_case "basics" `Quick test_handle_basics;
          Alcotest.test_case "equal cross arena" `Quick test_handle_equal_cross_arena;
          Alcotest.test_case "rebase" `Quick test_handle_rebase;
          Alcotest.test_case "algebra cross arena" `Quick test_handle_algebra_cross_arena;
          Alcotest.test_case "union_many" `Quick test_handle_union_many;
          Alcotest.test_case "consolidate" `Quick test_consolidate;
          Alcotest.test_case "intset roundtrip" `Quick test_intset_roundtrip;
          Alcotest.test_case "fingerprint of algebra" `Quick test_fingerprint_of_algebra;
        ] );
    ]
