open Bionav_util
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation
module Bytes_table = Tokenizer.Bytes_table

type t = {
  arena : Docset_arena.t;  (* owns postings and every query result *)
  table : (string, Docset.t) Hashtbl.t;
}

(* A term's growing posting list. Ids arrive in increasing order, so a
   repeat of the current citation can only be the last entry. *)
type postings_buf = { mutable ids : int array; mutable len : int }

let push b id =
  if b.ids.(b.len - 1) <> id then begin
    if b.len = Array.length b.ids then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.ids 0 bigger 0 b.len;
      b.ids <- bigger
    end;
    b.ids.(b.len) <- id;
    b.len <- b.len + 1
  end

let build medline =
  let buckets = Bytes_table.create (1 lsl 16) in
  let scratch = Tokenizer.scratch () in
  Array.iter
    (fun c ->
      let id = Citation.id c in
      let add tok =
        match Bytes_table.find_opt buckets tok with
        | Some b -> push b id
        | None -> Bytes_table.add buckets (Bytes.copy tok) { ids = Array.make 4 id; len = 1 }
      in
      Tokenizer.scan scratch c.Citation.title add;
      Tokenizer.scan scratch c.Citation.abstract add)
    (Medline.citations medline);
  (* One long-lived arena for the whole index: terms sharing a posting list
     share one physical set, and query evaluation below interns its
     intermediate results here, so repeated queries are memo hits. *)
  let arena = Docset_arena.create () in
  let table = Hashtbl.create (Bytes_table.length buckets) in
  Bytes_table.iter
    (fun tok b ->
      (* [tok] is the table's own copy, never written again. *)
      Hashtbl.add table (Bytes.unsafe_to_string tok)
        (Docset.of_sorted_array_unchecked_in arena (Array.sub b.ids 0 b.len)))
    buckets;
  { arena; table }

let arena t = t.arena

let n_terms t = Hashtbl.length t.table

let terms t = List.sort String.compare (List.of_seq (Hashtbl.to_seq_keys t.table))

let postings t term =
  let tok = String.lowercase_ascii (String.trim term) in
  match Hashtbl.find_opt t.table tok with
  | Some s -> s
  | None -> Docset.in_arena t.arena Docset.empty

let query_tokens q = Tokenizer.unique_tokens q

let query_and t q =
  match query_tokens q with
  | [] -> Docset.in_arena t.arena Docset.empty
  | first :: rest ->
      List.fold_left (fun acc tok -> Docset.inter acc (postings t tok)) (postings t first) rest

let query_or t q =
  Docset.in_arena t.arena (Docset.union_many (List.map (postings t) (query_tokens q)))

let document_frequency t term = Docset.cardinal (postings t term)
