(** Text tokenization for keyword retrieval.

    Lowercased alphanumeric runs; tokens shorter than 2 characters and a
    small stop-word list are dropped — the minimal normalization a PubMed
    stand-in needs so that "Cell Proliferation" and "cell proliferation"
    match. *)

val tokens : string -> string list
(** All tokens in order, duplicates preserved. *)

val unique_tokens : string -> string list
(** Distinct tokens, sorted. *)

val is_stop_word : string -> bool

(** {2 Allocation-free scanning}

    Indexing a corpus visits millions of tokens. {!scan} hands each one
    over in a reused buffer, so a caller that only looks tokens up
    allocates nothing per token. *)

module Bytes_table : Hashtbl.S with type key = bytes
(** Tables keyed by token bytes, hashed like [Hashtbl.hash] on the equal
    string. *)

type scratch
(** Reusable lowercase buffers, one per (short) token length. Not
    shareable between domains. *)

val scratch : unit -> scratch

val scan : scratch -> string -> (bytes -> unit) -> unit
(** [scan s text f] calls [f] on each token of [text] in order, exactly
    as {!tokens} lists them. The bytes passed to [f] belong to [s] and are
    overwritten by a later token of the same length: copy them to keep
    them. *)
