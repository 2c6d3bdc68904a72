open Bionav_util
open Bionav_core

type entry = { members : int array; cut : int list }
type t = { cache : (string, entry) Lru.t; lock : Mutex.t (* leaf lock over [cache] *) }

let hits_counter = Metrics.counter "bionav_prefetch_plan_hits_total"
let misses_counter = Metrics.counter "bionav_prefetch_plan_misses_total"
let insertions_counter = Metrics.counter "bionav_prefetch_plan_insertions_total"
let evictions_counter = Metrics.counter "bionav_prefetch_plan_evictions_total"

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  { cache = Lru.create ~capacity; lock = Mutex.create () }

let locked t f = Mutex.protect t.lock f

(* The member set arrives as an interned {!Docset.t}, so the key reuses its
   O(1) content fingerprint instead of re-folding the member list on every
   lookup. Collisions are harmless: [find] verifies the stored member
   array before serving a cut. *)
let key query fingerprint root members =
  Printf.sprintf "%s\x00%s\x00%d\x00%x" (Nav_cache.normalize query) fingerprint root
    (Docset.fingerprint members)

let same_members stored members = Docset.equal_array members stored

let find t ~query ~fingerprint ~root ~members =
  let k = key query fingerprint root members in
  match locked t (fun () -> Lru.find t.cache k) with
  | Some e when same_members e.members members ->
      Metrics.incr hits_counter;
      Some e.cut
  | Some _ | None ->
      Metrics.incr misses_counter;
      None

let mem t ~query ~fingerprint ~root ~members =
  let k = key query fingerprint root members in
  match locked t (fun () -> Lru.peek t.cache k) with
  | Some e -> same_members e.members members
  | None -> false

let store t ~query ~fingerprint ~root ~members ~cut =
  match cut with
  | [] -> ()
  | _ :: _ ->
      let k = key query fingerprint root members in
      let e = { members = Docset.to_array members; cut } in
      let evicted =
        locked t (fun () ->
            let evictions_before = Lru.evictions t.cache in
            Lru.add t.cache k e;
            Lru.evictions t.cache > evictions_before)
      in
      Metrics.incr insertions_counter;
      if evicted then Metrics.incr evictions_counter

let length t = locked t (fun () -> Lru.length t.cache)
let hits t = locked t (fun () -> Lru.hits t.cache)
let misses t = locked t (fun () -> Lru.misses t.cache)

let clear t =
  locked t (fun () ->
      Lru.clear t.cache;
      Lru.reset_counters t.cache)

let plan_source t ~query ~fingerprint =
  {
    Navigation.find_plan = (fun ~root ~members -> find t ~query ~fingerprint ~root ~members);
    store_plan = (fun ~root ~members ~cut -> store t ~query ~fingerprint ~root ~members ~cut);
  }
