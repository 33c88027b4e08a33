(** Compile-time start-of-match prefilter facts.

    Unanchored scans pay one speculative attempt per input offset; real
    engines prune most of them with facts derivable from the pattern
    alone. This module extracts, per compiled pattern:

    - its {b first byte-set} — an over-approximation of the set of bytes
      any match can start with (sound: a byte outside the set can never
      begin a match, so the offset is skipped without an attempt);
    - an optional {b required literal set with an exact offset} — every
      match contains one of [lits] starting exactly [offset] bytes after
      the match start (offset 0 = prefix literals). These feed the
      Aho-Corasick union automaton of {!Ac} for multi-rule scans;
    - the {b minimum match length} in bytes.

    Facts are computed on the normalised AST, stored in
    [Compile.compiled], and serialisable as a sidecar next to the ISA
    binary ({!to_bytes}). All extraction is total: [analyze] never
    raises on any AST the frontend can produce. *)

type literals = {
  lits : string list;
      (** each nonempty, deduplicated, sorted; every match of the
          pattern has one of these starting at [offset] bytes past the
          match start *)
  offset : int;  (** exact byte offset from the match start *)
  exact : bool;
      (** [offset = 0] and [lits] is exactly the pattern's full match
          set (each literal is a complete match) *)
}

type t = {
  first : Alveare_frontend.Charset.t;
      (** over-approximation of possible first bytes of nonempty
          matches *)
  first_bitmap : Bytes.t;  (** 32-byte bitmap over byte values 0..255 *)
  first_count : int;       (** [Charset.cardinal first] *)
  nullable : bool;         (** the pattern matches the empty string *)
  min_length : int;        (** minimum match length in bytes *)
  literals : literals option;
}

val analyze : Alveare_frontend.Ast.t -> t
(** Total: never raises. *)

val fixed_length : Alveare_frontend.Ast.t -> int option
(** The length of every match, when all matches have the same one. *)

val first_usable : t -> bool
(** The first-set skip loop is applicable and useful: the pattern is
    not nullable (empty matches can start anywhere, so skipping offsets
    would be unsound) and the first set excludes at least one byte. *)

val usable_literals : t -> literals option
(** [literals] when the pattern is not nullable — the precondition for
    literal-candidate scanning. *)

val mem_first : t -> char -> bool

val next_candidate : t -> string -> int -> int option
(** [next_candidate t input i] — smallest offset [>= i] (and [< length
    input]) whose byte is in the first set, or [None]. The memchr-style
    inner loop of the skip scanner. *)

val equal : t -> t -> bool

(** {2 Sidecar serialisation}

    ["ALVP"] magic + version byte + flags + min-length + first-set
    bitmap + literal table, written next to the ISA binary so a loaded
    program keeps its prefilter. *)

val magic : string
val version : int
val to_bytes : t -> bytes
val of_bytes : bytes -> (t, string) result
(** Never raises; malformed images return [Error], among them any image
    with a flag bit other than nullable (1), literal table (4) and
    exact (8) set. *)

val describe : t -> string
(** One-line human summary, e.g.
    ["first{3} min_len=5 lits{2}@0"]. *)

val pp : t Fmt.t
