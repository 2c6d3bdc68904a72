(* Reference implementations of the corpus load path: the straightforward
   list-based and [Array.sort]-based constructors that the monomorphic,
   allocation-light ones in lib/ must reproduce exactly. Test-only. *)

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
