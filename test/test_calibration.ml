module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module Cal = Bionav_corpus.Calibration

let report =
  lazy
    (let h = S.generate ~params:S.small_params ~seed:111 () in
     let m = G.generate ~params:{ G.small_params with G.n_citations = 500 } ~seed:112 h in
     Cal.compute m)

let test_shapes () =
  let r = Lazy.force report in
  Alcotest.(check int) "citations" 500 r.Cal.n_citations;
  Alcotest.(check bool) "concepts populated" true (r.Cal.concepts_with_citations > 0);
  Alcotest.(check bool) "annotations positive" true (r.Cal.mean_annotations > 0.);
  Alcotest.(check bool) "median <= plausible" true
    (r.Cal.median_annotations <= 2. *. r.Cal.mean_annotations);
  Alcotest.(check bool) "majors within bounds" true
    (r.Cal.mean_major_topics >= 1. && r.Cal.mean_major_topics <= 3.)

let test_gini_bounds () =
  let r = Lazy.force report in
  Alcotest.(check bool) "gini in [0,1]" true
    (r.Cal.gini_citation_counts >= 0. && r.Cal.gini_citation_counts <= 1.)

let test_gini_known_values () =
  (* Equal masses -> 0; all mass on one -> (n-1)/n. Accessed through compute
     is awkward, so check the reported value on constructed corpora is
     consistent with concentration: the generated corpus must be far from
     uniform. *)
  let r = Lazy.force report in
  Alcotest.(check bool) "concentrated" true (r.Cal.gini_citation_counts > 0.3)

let test_depth_bias () =
  let r = Lazy.force report in
  Alcotest.(check bool) "associations shallower than leaves" true
    (r.Cal.depth_mean_annotation < float_of_int r.Cal.hierarchy_height)

let test_bands_report_names () =
  let checks = Cal.within_paper_bands (Lazy.force report) in
  Alcotest.(check int) "six checks" 6 (List.length checks);
  List.iter
    (fun (name, _) -> Alcotest.(check bool) "named" true (String.length name > 5))
    checks

module Q = Bionav_workload.Queries

let full_scale = lazy (Q.build ~seed:11 ())

let test_full_scale_bands () =
  (* The headline claim: the default-scale corpus passes every band. Slow-ish
     (a few seconds) but this is the quantitative backing of DESIGN.md's
     substitution table. *)
  let w = Lazy.force full_scale in
  let r = Cal.compute w.Q.medline in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Cal.within_paper_bands r)

(* One MD5 over the whole seed-11 corpus: every citation record, the
   Medline postings, both orientations of the association table and the
   keyword index. Each part is digested item by item and the item
   digests are digested again, so the text never sits in one buffer. *)
let corpus_digest (w : Q.t) =
  let module Intset = Bionav_util.Intset in
  let module Docset = Bionav_util.Docset in
  let module Citation = Bionav_corpus.Citation in
  let module Medline = Bionav_corpus.Medline in
  let module AT = Bionav_store.Assoc_table in
  let module II = Bionav_search.Inverted_index in
  let ints l = String.concat "," (List.map string_of_int l) in
  let part n item =
    let b = Buffer.create (16 * n) in
    for i = 0 to n - 1 do
      Buffer.add_string b (Digest.string (item i))
    done;
    Digest.string (Buffer.contents b)
  in
  let m = w.Q.medline in
  let assoc = Bionav_store.Database.assoc w.Q.database in
  let index = Bionav_search.Eutils.index w.Q.eutils in
  let terms = Array.of_list (II.terms index) in
  let citation i =
    let c = Medline.citation m i in
    String.concat "|"
      [ string_of_int c.Citation.id; c.Citation.title; c.Citation.abstract;
        String.concat ";" c.Citation.authors; c.Citation.journal;
        string_of_int c.Citation.year; ints c.Citation.major_topics;
        ints (Intset.elements c.Citation.concepts);
        String.concat ";"
          (List.map (fun (k, qs) -> string_of_int k ^ ":" ^ ints qs) c.Citation.qualified) ]
  in
  let n_concepts = Bionav_mesh.Hierarchy.size w.Q.hierarchy in
  let set s = ints (Intset.elements s) in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [ part (Medline.size m) citation;
            part n_concepts (fun c -> set (Medline.postings m c));
            part (AT.n_concepts assoc) (fun c -> set (AT.citations_of_concept assoc c));
            part (AT.n_citations assoc) (fun c -> set (AT.concepts_of_citation assoc c));
            part (Array.length terms) (fun i ->
                terms.(i) ^ "=" ^ ints (Docset.elements (II.postings index terms.(i)))) ]))

(* The digest of the corpus the list-based load path (one list cons per
   association, polymorphic sorts) built; the allocation-light path must
   reproduce it byte for byte. *)
let test_corpus_digest () =
  Alcotest.(check string) "seed-11 corpus digest" "cd8860015d538b11219586b07174127a"
    (corpus_digest (Lazy.force full_scale))

let () =
  Alcotest.run "calibration"
    [
      ( "unit",
        [
          Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "gini bounds" `Quick test_gini_bounds;
          Alcotest.test_case "gini concentration" `Quick test_gini_known_values;
          Alcotest.test_case "depth bias" `Quick test_depth_bias;
          Alcotest.test_case "band names" `Quick test_bands_report_names;
        ] );
      ( "full-scale",
        [
          Alcotest.test_case "paper bands" `Slow test_full_scale_bands;
          Alcotest.test_case "corpus digest" `Slow test_corpus_digest;
        ] );
    ]
