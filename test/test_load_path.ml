(* The corpus load path against its reference implementations
   (Load_oracle): every constructor must produce exactly what the
   list-based or [Array.sort]-based one does. *)

open Bionav_util
module H = Bionav_mesh.Hierarchy
module Citation = Bionav_corpus.Citation
module Medline = Bionav_corpus.Medline
module AT = Bionav_store.Assoc_table
module II = Bionav_search.Inverted_index
module Tokenizer = Bionav_search.Tokenizer

(* Ints biased toward duplicates and the extremes. *)
let int_elt =
  QCheck.oneof
    [ QCheck.int; QCheck.int_range (-20) 20; QCheck.always max_int; QCheck.always min_int ]

let qcheck_of_array =
  QCheck.Test.make ~name:"Intset/Docset.of_array = polymorphic sort + dedup" ~count:500
    QCheck.(array_of_size Gen.(0 -- 300) int_elt)
    (fun a ->
      let before = Array.copy a in
      let expected = Load_oracle.sorted_unique a in
      Intset.to_array (Intset.of_array a) = expected
      && Array.of_list (Docset.elements (Docset.of_array a)) = expected
      && a = before)

(* Shapes that stress a quicksort: sorted, reversed, all equal, few
   distinct values, organ pipe; plus random fill. *)
let shaped n shape seed =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      match shape with
      | 0 -> i
      | 1 -> n - i
      | 2 -> 7
      | 3 -> Rng.int rng 3
      | 4 -> min i (n - i)
      | 5 -> if Rng.bool rng then max_int else Rng.int rng 1000
      | _ -> Rng.int rng max_int)

let qcheck_sort_prefix =
  QCheck.Test.make ~name:"Int_sort.sort_prefix = pad with max_int + Array.sort, prefix only"
    ~count:300
    QCheck.(quad (int_range 0 3000) (int_range 0 6) (int_range 0 1000) small_nat)
    (fun (n, shape, fill_permille, seed) ->
      let a = shaped n shape seed in
      let fill = n * fill_permille / 1000 in
      let ours = Array.copy a and oracle = Array.copy a in
      Int_sort.sort_prefix ours ~len:fill;
      Load_oracle.sort_prefix oracle ~fill;
      Array.sub ours 0 fill = Array.sub oracle 0 fill
      && Array.sub ours fill (n - fill) = Array.sub a fill (n - fill))

let qcheck_sort_prefix_arbitrary =
  QCheck.Test.make ~name:"Int_sort.sort_prefix on arbitrary ints" ~count:500
    QCheck.(pair (array_of_size Gen.(0 -- 200) int_elt) small_nat)
    (fun (a, k) ->
      let fill = if Array.length a = 0 then 0 else k mod (Array.length a + 1) in
      let ours = Array.copy a and oracle = Array.copy a in
      Int_sort.sort_prefix ours ~len:fill;
      Load_oracle.sort_prefix oracle ~fill;
      Array.sub ours 0 fill = Array.sub oracle 0 fill
      && Array.sub ours fill (Array.length a - fill) = Array.sub a fill (Array.length a - fill))

let test_sort_prefix_bounds () =
  Alcotest.check_raises "len past the end" (Invalid_argument "Int_sort.sort_prefix: bad length")
    (fun () -> Int_sort.sort_prefix [| 1; 2 |] ~len:3);
  Alcotest.check_raises "negative len" (Invalid_argument "Int_sort.sort_prefix: bad length")
    (fun () -> Int_sort.sort_prefix [| 1; 2 |] ~len:(-1))

(* --- the counting transpose ---------------------------------------------- *)

(* [n_cols] columns and rows that are random subsets of [0, n_cols). *)
let gen_rows =
  QCheck.Gen.(
    int_range 1 40 >>= fun n_cols ->
    int_range 0 60 >>= fun n_rows ->
    array_repeat n_rows (list_size (int_range 0 12) (int_range 0 (n_cols - 1)))
    >|= fun rows -> (n_cols, Array.map (fun l -> Load_oracle.sorted_unique (Array.of_list l)) rows))

let arb_rows =
  let row r = String.concat "," (Array.to_list (Array.map string_of_int r)) in
  QCheck.make gen_rows ~print:(fun (n, rows) ->
      Printf.sprintf "n_cols=%d rows=[%s]" n
        (String.concat "; " (Array.to_list (Array.map row rows))))

let citation id concepts =
  {
    Citation.id;
    title = "";
    abstract = "";
    authors = [];
    journal = "";
    year = 2000;
    major_topics = [];
    concepts = Intset.of_array concepts;
    qualified = [];
  }

let qcheck_transpose =
  QCheck.Test.make ~name:"Intset.transpose = list-bucket transpose" ~count:300 arb_rows
    (fun (n_cols, rows) ->
      Array.map Intset.to_array (Intset.transpose ~n_cols (Array.map Intset.of_array rows))
      = Load_oracle.transpose ~n_cols rows)

let qcheck_medline_and_assoc =
  QCheck.Test.make ~name:"Medline postings and Assoc_table by_citation = list-bucket transpose"
    ~count:200 arb_rows
    (fun (n_cols, rows) ->
      (* A chain hierarchy of [n_cols] concepts; the rows are citations. *)
      let hierarchy = H.of_parents (Array.init n_cols (fun i -> i - 1)) in
      let m = Medline.make hierarchy (Array.mapi citation rows) in
      let postings = Array.init n_cols (Medline.postings m) in
      let expected_postings = Load_oracle.transpose ~n_cols rows in
      let n_citations = Array.length rows in
      let table = AT.of_postings ~n_citations postings in
      Array.map Intset.to_array postings = expected_postings
      && Array.init n_citations (fun c -> Intset.to_array (AT.concepts_of_citation table c))
         = Load_oracle.transpose ~n_cols:n_citations expected_postings
      && AT.n_associations table = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows)

let test_transpose_rejects () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "value past n_cols" true
    (raises (fun () -> Intset.transpose ~n_cols:3 [| Intset.of_list [ 0; 3 ] |]));
  Alcotest.(check bool) "negative value" true
    (raises (fun () -> Intset.transpose ~n_cols:3 [| Intset.of_list [ -1 ] |]));
  Alcotest.(check bool) "Medline: concept outside the hierarchy" true
    (raises (fun () ->
         Medline.make (H.of_parents [| -1; 0 |]) [| citation 0 [| 1 |]; citation 1 [| 2 |] |]));
  Alcotest.(check int) "empty columns" 2
    (Array.length (Intset.transpose ~n_cols:2 [||]))

(* --- tokenizer and inverted index ----------------------------------------- *)

let vocabulary =
  [| "Apoptosis"; "apoptosis"; "APOPTOSIS"; "the"; "The"; "a"; "x"; "b2"; "c+d"; "IL-2";
     "--"; "Na+/I-"; "cell,"; "Cell."; "however"; "However;"; "42"; "(kinase)"; "  ";
     "\t"; "\xc3\xa9t\xc3\xa9"; "mice"; "Mice,"; "Transgenic"; "of"; "in"; "is";
     (* longer than the tokenizer's reused buffers *)
     String.make 65 'Q'; String.make 64 'q'; "Pneumono-" ^ String.make 90 'z' |]

let gen_text =
  QCheck.Gen.(
    list_size (int_range 0 25) (oneofa vocabulary) >>= fun words ->
    list_repeat (List.length words) (oneofa [| " "; ""; ", "; "\n"; "/" |]) >|= fun seps ->
    String.concat "" (List.concat (List.map2 (fun w s -> [ w; s ]) words seps)))

let qcheck_tokens =
  QCheck.Test.make ~name:"Tokenizer.tokens = String.sub + lowercase tokenizer" ~count:500
    QCheck.(make ~print:Fun.id Gen.(oneof [ gen_text; string_printable; string ]))
    (fun text -> Tokenizer.tokens text = Load_oracle.tokens text)

let qcheck_stop_words =
  QCheck.Test.make ~name:"Tokenizer.is_stop_word = membership in the stop list" ~count:1000
    QCheck.(
      make ~print:Fun.id Gen.(oneof [ oneofl Load_oracle.stop_words; gen_text; string_small ]))
    (fun w -> Tokenizer.is_stop_word w = Load_oracle.is_stop_word w)

let test_stop_words () =
  List.iter
    (fun w -> Alcotest.(check bool) w true (Tokenizer.is_stop_word w))
    Load_oracle.stop_words;
  List.iter
    (fun w -> Alcotest.(check bool) w false (Tokenizer.is_stop_word w))
    [ ""; "The"; "tha"; "ha"; "howeve"; "study"; "i"; "thes" ]

let qcheck_index =
  QCheck.Test.make ~name:"Inverted_index.build = list-bucket index over title ^ abstract"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 0 40) (pair gen_text gen_text)))
    (fun texts ->
      let citations =
        Array.of_list
          (List.mapi
             (fun id (title, abstract) -> { (citation id [||]) with title; abstract })
             texts)
      in
      let index = II.build (Medline.make (H.of_parents [| -1 |]) citations) in
      let expected = Load_oracle.index citations in
      II.terms index = List.map fst expected
      && List.for_all
           (fun (term, ids) -> Array.of_list (Docset.elements (II.postings index term)) = ids)
           expected)

let () =
  Alcotest.run "load_path"
    [
      ( "sort",
        [
          QCheck_alcotest.to_alcotest qcheck_of_array;
          QCheck_alcotest.to_alcotest qcheck_sort_prefix;
          QCheck_alcotest.to_alcotest qcheck_sort_prefix_arbitrary;
          Alcotest.test_case "sort_prefix bounds" `Quick test_sort_prefix_bounds;
        ] );
      ( "transpose",
        [
          QCheck_alcotest.to_alcotest qcheck_transpose;
          QCheck_alcotest.to_alcotest qcheck_medline_and_assoc;
          Alcotest.test_case "rejects out of range" `Quick test_transpose_rejects;
        ] );
      ( "index",
        [
          QCheck_alcotest.to_alcotest qcheck_tokens;
          QCheck_alcotest.to_alcotest qcheck_stop_words;
          Alcotest.test_case "stop words" `Quick test_stop_words;
          QCheck_alcotest.to_alcotest qcheck_index;
        ] );
    ]
