(* Program-side counters over the measured window only.

   [Bionav_util.Metrics] is process-global: set-up, warm-up and the
   reference replay all record into it. The benchmark therefore reads
   every counter and every histogram's sum/count at both edges of the
   window and reports differences. Histograms contribute only their
   sum and count (a mean), never a bucket-interpolated percentile. The
   same is done for the GC's allocation and collection counts. *)

module Metrics = Bionav_util.Metrics

type snapshot = {
  counters : (string * int) list;
  histograms : (string * (int * float)) list;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

let take ~counters ~histograms =
  let gc = Gc.quick_stat () in
  {
    counters = List.map (fun name -> (name, Metrics.value (Metrics.counter name))) counters;
    histograms =
      List.map
        (fun name ->
          let h = Metrics.histogram name in
          (name, (Metrics.count h, Metrics.sum h)))
        histograms;
    minor_words = gc.Gc.minor_words;
    minor_collections = gc.Gc.minor_collections;
    major_collections = gc.Gc.major_collections;
  }

type delta = { before : snapshot; after : snapshot }

let between before after = { before; after }

let lookup what name l =
  match List.assoc_opt name l with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Window: %s %S was not snapshotted" what name)

let counter d name = lookup "counter" name d.after.counters - lookup "counter" name d.before.counters

let hist_count d name =
  fst (lookup "histogram" name d.after.histograms)
  - fst (lookup "histogram" name d.before.histograms)

let hist_sum d name =
  snd (lookup "histogram" name d.after.histograms)
  -. snd (lookup "histogram" name d.before.histograms)

(* Mean of the window's observations; 0 when the window observed none
   (the sample count is reported beside it). *)
let hist_mean d name =
  let n = hist_count d name in
  if n = 0 then 0. else hist_sum d name /. float_of_int n

let minor_words d = d.after.minor_words -. d.before.minor_words
let minor_collections d = d.after.minor_collections - d.before.minor_collections
let major_collections d = d.after.major_collections - d.before.major_collections

(* hits / (hits + misses); 0 when there were no lookups. *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
