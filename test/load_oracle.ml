(* Reference implementations of the corpus load path and the on-line
   tree input: the straightforward list-, [Hashtbl]- and [Array.sort]-based
   constructors that the monomorphic, allocation-light ones in lib/ must
   reproduce exactly. Test-only. *)

(* Sorted, duplicate-free copy via the polymorphic stdlib sort. *)
let sorted_unique a =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n = 0 then b
  else begin
    let out = Array.make n b.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if b.(i) <> out.(!k - 1) then begin
        out.(!k) <- b.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

(* Column view of sorted rows, one list cons per element: rows are visited
   in increasing order, so each reversed bucket is sorted. *)
let transpose ~n_cols (rows : int array array) =
  let buckets = Array.make n_cols [] in
  Array.iteri
    (fun r row ->
      Array.iter
        (fun c ->
          if c < 0 || c >= n_cols then invalid_arg "Load_oracle.transpose";
          buckets.(c) <- r :: buckets.(c))
        row)
    rows;
  Array.map (fun b -> Array.of_list (List.rev b)) buckets

(* The run-buffer sort: pad the unfilled tail with [max_int], which sorts
   last, and sort the whole buffer. *)
let sort_prefix pairs ~fill =
  Array.fill pairs fill (Array.length pairs - fill) max_int;
  Array.sort Int.compare pairs

let stop_words =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "by"; "for"; "from"; "has";
    "in"; "is"; "it"; "its"; "of"; "on"; "or"; "that"; "the"; "to"; "was";
    "were"; "with"; "these"; "this"; "however";
  ]

let is_stop_word w = List.mem w stop_words

(* Tokens of one text: lowercase [String.sub] per run of token characters,
   dropping one-character tokens and stop words. *)
let tokens text =
  let is_token_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' -> true
    | _ -> false
  in
  let n = String.length text in
  let acc = ref [] in
  let start = ref (-1) in
  let flush stop =
    if !start >= 0 then begin
      let tok = String.lowercase_ascii (String.sub text !start (stop - !start)) in
      if String.length tok >= 2 && not (is_stop_word tok) then
        acc := tok :: !acc;
      start := -1
    end
  in
  for i = 0 to n - 1 do
    if is_token_char text.[i] then begin
      if !start < 0 then start := i
    end
    else flush i
  done;
  flush n;
  List.rev !acc

(* Term -> posting list over "title abstract" of every citation, sorted by
   term, with per-term id lists deduplicated adjacently. *)
let index (citations : Bionav_corpus.Citation.t array) =
  let buckets : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (c : Bionav_corpus.Citation.t) ->
      List.iter
        (fun tok ->
          match Hashtbl.find_opt buckets tok with
          | Some l -> if (match !l with x :: _ -> x <> c.id | [] -> true) then l := c.id :: !l
          | None -> Hashtbl.add buckets tok (ref [ c.id ]))
        (tokens (c.title ^ " " ^ c.abstract)))
    citations;
  Hashtbl.fold (fun tok l acc -> (tok, Array.of_list (List.rev !l)) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The on-line tree input, bucketed through a [Hashtbl] of lists: every
   concept annotating a citation of [result], ascending, with the result
   citations it annotates. Citations are visited in increasing order, so
   each reversed bucket is sorted. *)
let concepts_of_result db result =
  let buckets = Hashtbl.create 256 in
  Bionav_util.Docset.iter
    (fun cit ->
      Bionav_store.Database.iter_concepts_of_citation db cit (fun concept ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt buckets concept) in
          Hashtbl.replace buckets concept (cit :: prev)))
    result;
  Hashtbl.fold (fun concept cits acc -> (concept, Array.of_list (List.rev cits)) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The navigation tree over that input, each attachment first held by a
   private arena and then copied into the tree's. *)
let nav_tree db result =
  Bionav_core.Nav_tree.build ~hierarchy:(Bionav_store.Database.hierarchy db)
    ~attachments:
      (List.map
         (fun (c, cits) -> (c, Bionav_util.Docset.of_sorted_array_unchecked cits))
         (concepts_of_result db result))
    ~total_count:(Bionav_store.Database.total_count db)

(* The qualifier-facet tree: citations bucketed by primary-qualifier page
   through per-page lists, attachments listed (and so interned) from the
   last page to the first, totals counted over the whole corpus. *)
let facet_tree ~hierarchy medline result =
  let module Nav_space = Bionav_core.Nav_space in
  let module Medline = Bionav_corpus.Medline in
  let page cit =
    Nav_space.page_concept (Nav_space.primary_qualifier (Medline.citation medline cit))
  in
  let n_pages = Bionav_mesh.Hierarchy.size hierarchy in
  let totals = Array.make n_pages 0 in
  for cit = 0 to Medline.size medline - 1 do
    totals.(page cit) <- totals.(page cit) + 1
  done;
  totals.(0) <- Medline.size medline;
  let pages = Array.make n_pages [] in
  Bionav_util.Docset.iter (fun cit -> pages.(page cit) <- cit :: pages.(page cit)) result;
  let attachments = ref [] in
  Array.iteri
    (fun p cits ->
      if cits <> [] then
        attachments :=
          (p, Bionav_util.Docset.of_sorted_array_unchecked (Array.of_list (List.rev cits)))
          :: !attachments)
    pages;
  Bionav_core.Nav_tree.build ~hierarchy ~attachments:!attachments ~total_count:(fun c -> totals.(c))
