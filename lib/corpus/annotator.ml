open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy

type params = {
  related_per_topic : float;
  background_mean : float;
  background_depth_decay : float;
}

let default_params =
  { related_per_topic = 6.0; background_mean = 45.0; background_depth_decay = 0.55 }

let light_params =
  { related_per_topic = 3.0; background_mean = 10.0; background_depth_decay = 0.6 }

type t = {
  params : params;
  hierarchy : Hierarchy.t;
  rng : Rng.t;
  by_depth : int array array;  (** Non-root nodes grouped by depth (index 1..). *)
  depth_cdf : float array;  (** Cumulative background-depth distribution. *)
  mark : int array;  (** [mark.(c) = stamp]: [c] is in the set being built. *)
  mutable stamp : int;
  mutable members : int array;  (** The set being built, in insertion order. *)
  mutable n_members : int;
  mutable candidates : int array;  (** Scratch for one topic's related concepts. *)
}

let create ?(params = default_params) hierarchy rng =
  let h = Hierarchy.height hierarchy in
  let by_depth =
    Array.init (h + 1) (fun d ->
        if d = 0 then [||] else Array.of_list (Hierarchy.nodes_at_depth hierarchy d))
  in
  let weights =
    Array.init (h + 1) (fun d ->
        if d = 0 || Array.length by_depth.(d) = 0 then 0.
        else Float.pow params.background_depth_decay (float_of_int d))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let depth_cdf = Array.make (h + 1) 0. in
  let acc = ref 0. in
  for d = 0 to h do
    acc := !acc +. (weights.(d) /. total);
    depth_cdf.(d) <- !acc
  done;
  {
    params;
    hierarchy;
    rng;
    by_depth;
    depth_cdf;
    mark = Array.make (Hierarchy.size hierarchy) 0;
    stamp = 0;
    members = Array.make 256 0;
    n_members = 0;
    candidates = Array.make 256 0;
  }

let draw_background t =
  let u = Rng.float t.rng 1.0 in
  let d = ref 0 in
  while !d < Array.length t.depth_cdf - 1 && t.depth_cdf.(!d) < u do
    incr d
  done;
  (* Guard against numerically empty depths. *)
  let d = if Array.length t.by_depth.(!d) = 0 then 1 else !d in
  Rng.choice t.rng t.by_depth.(d)

(* [a], or a copy twice its size when its [n] slots are all in use. *)
let room a n =
  if n < Array.length a then a
  else begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit a 0 bigger 0 n;
    bigger
  end

(* Siblings, children and uncle-level concepts near a topic, written to
   [t.candidates]; returns their count. *)
let related_candidates t topic =
  let h = t.hierarchy in
  let n = ref 0 in
  let push c =
    t.candidates <- room t.candidates !n;
    t.candidates.(!n) <- c;
    incr n
  in
  let parent = Hierarchy.parent h topic in
  if parent <> -1 then begin
    List.iter (fun c -> if c <> topic then push c) (Hierarchy.children h parent);
    List.iter push (Hierarchy.children h topic);
    let gp = Hierarchy.parent h parent in
    if gp <> -1 then List.iter (fun c -> if c <> parent then push c) (Hierarchy.children h gp)
  end;
  !n

let poissonish rng mean =
  (* Geometric with matching mean: adequate dispersion for this model. *)
  if mean <= 0. then 0 else Rng.geometric rng (1. /. (1. +. mean))

(* Add [c] and its ancestors below the root. The set is closed under
   ancestors, so the walk up stops at the first node already in it. *)
let rec add t c =
  if c <> Hierarchy.root t.hierarchy && t.mark.(c) <> t.stamp then begin
    t.mark.(c) <- t.stamp;
    t.members <- room t.members t.n_members;
    t.members.(t.n_members) <- c;
    t.n_members <- t.n_members + 1;
    add t (Hierarchy.parent t.hierarchy c)
  end

let annotate t ~major_topics =
  t.stamp <- t.stamp + 1;
  t.n_members <- 0;
  List.iter
    (fun topic ->
      add t topic;
      let n = related_candidates t topic in
      if n > 0 then begin
        let k = poissonish t.rng t.params.related_per_topic in
        let k = Rng.sample_in_place t.rng k t.candidates ~len:n in
        (* Related concepts also pull in their ancestor chains, like a
           genuine PubMed association would. *)
        for i = 0 to k - 1 do
          add t t.candidates.(i)
        done
      end)
    major_topics;
  let n_background = poissonish t.rng t.params.background_mean in
  for _ = 1 to n_background do
    add t (draw_background t)
  done;
  Int_sort.sort_prefix t.members ~len:t.n_members;
  Intset.of_sorted_array_unchecked (Array.sub t.members 0 t.n_members)
