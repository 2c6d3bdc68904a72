open Bionav_util

type t = {
  by_concept : Intset.t array;
  by_citation : Intset.t array;
  n_associations : int;
}

let of_postings ~n_citations postings =
  {
    by_concept = Array.copy postings;
    by_citation = Intset.transpose ~n_cols:n_citations postings;
    n_associations = Array.fold_left (fun acc s -> acc + Intset.cardinal s) 0 postings;
  }

let n_concepts t = Array.length t.by_concept
let n_citations t = Array.length t.by_citation
let n_associations t = t.n_associations

let citations_of_concept t c = t.by_concept.(c)
let concepts_of_citation t c = t.by_citation.(c)

let fold_concepts t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun concept citations ->
      if not (Intset.is_empty citations) then acc := f !acc concept citations)
    t.by_concept;
  !acc
