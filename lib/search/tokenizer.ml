let stop_words =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "by"; "for"; "from"; "has";
    "in"; "is"; "it"; "its"; "of"; "on"; "or"; "that"; "the"; "to"; "was";
    "were"; "with"; "these"; "this"; "however";
  ]

module Bytes_table = Hashtbl.Make (struct
  type t = bytes

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

let stop_table =
  let tbl = Bytes_table.create 64 in
  List.iter (fun w -> Bytes_table.replace tbl (Bytes.of_string w) ()) stop_words;
  tbl

let max_stop_len = List.fold_left (fun m w -> max m (String.length w)) 0 stop_words

let is_stop_bytes b = Bytes.length b <= max_stop_len && Bytes_table.mem stop_table b

let is_stop_word w = is_stop_bytes (Bytes.unsafe_of_string w)

let is_token_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' -> true | _ -> false

(* A token byte maps to its lowercase, any other byte to '\000'. *)
let fold_char =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_token_char c then Char.lowercase_ascii c else '\000')

let fold c = String.unsafe_get fold_char (Char.code c)

(* A token of [k] bytes is lowercased into [by_len.(k)], created at its
   first use, so a lookup keyed by the token needs no allocation. Longer
   tokens than [max_reused] are rare and get a fresh buffer. *)
let max_reused = 64

type scratch = { by_len : bytes array }

let scratch () = { by_len = Array.make (max_reused + 1) Bytes.empty }

let buffer s len =
  if len > max_reused then Bytes.create len
  else if Bytes.length s.by_len.(len) = len then s.by_len.(len)
  else begin
    let b = Bytes.create len in
    s.by_len.(len) <- b;
    b
  end

let scan s text f =
  let n = String.length text in
  (* Every read below is at an index already checked against [n]. *)
  let at i = fold (String.unsafe_get text i) in
  let i = ref 0 in
  while !i < n do
    if at !i = '\000' then incr i
    else begin
      let start = !i in
      incr i;
      while !i < n && at !i <> '\000' do
        incr i
      done;
      let len = !i - start in
      if len >= 2 then begin
        let b = buffer s len in
        for k = 0 to len - 1 do
          Bytes.unsafe_set b k (at (start + k))
        done;
        if not (is_stop_bytes b) then f b
      end
    end
  done

(* Queries are tokenised on every search, from any domain: one scratch
   per domain saves building one per call. *)
let domain_scratch = Domain.DLS.new_key scratch

let tokens text =
  let acc = ref [] in
  scan (Domain.DLS.get domain_scratch) text (fun b -> acc := Bytes.to_string b :: !acc);
  List.rev !acc

let unique_tokens text = List.sort_uniq String.compare (tokens text)
