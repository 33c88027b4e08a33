(** Priority-faithful Brzozowski-derivative matcher, run as a lazy DFA.

    Evaluates intersection, complement and lookarounds natively, with
    PCRE leftmost-first spans. Rows are keyed by state and by the mask
    of lookarounds true at the position, for the pattern's lifetime: a
    scan costs one linear walk per lookaround plus the per-start row
    walks, one cached transition per byte. *)

open Alveare_frontend
module Semantics = Alveare_engine.Semantics

type t
(** An arena, the root node and bounded tables built on the first scan.
    Safe to share across domains: the arena mutex serialises them. *)

val of_ast : Ast.t -> t
(** Compile a (possibly extended) frontend AST. *)

val of_pattern : ?extended:bool -> string -> t
(** Parse and compile; [extended] (default true) enables [&], [(?~r)]
    and lookaround syntax. Raises on malformed patterns (see
    {!Alveare_frontend.Desugar.pattern_exn}). *)

(** The same engine with other table and arena caps (tests use tiny ones). *)
module Make (_ : sig val max_entries : int val max_nodes : int end) : sig
  val of_ast : Ast.t -> t
  val of_pattern : ?extended:bool -> string -> t
end

val state_count : t -> int
(** Nodes interned (new derivative states add some; a rebuild drops them). *)

val flushes : t -> int
(** Table flushes and arena rebuilds so far. *)

val look_free : t -> bool
(** True when the pattern contains no lookaround. *)

val match_at : t -> string -> int -> int option
(** [match_at eng input start] returns the end offset of the
    leftmost-first preferred match beginning exactly at [start], or
    [None]. Raises [Invalid_argument] if [start] is outside
    [0..length input]. *)

val search : ?from:int -> t -> string -> Semantics.span option
(** Leftmost-first search: the match at the smallest start position
    [>= from] (default 0). *)

val find_all : t -> string -> Semantics.span list
(** Non-overlapping scan via {!Semantics.next_scan_position} — the same
    discipline as the plan executor, so span lists compare exactly. *)

val matches : t -> string -> bool

val arena : t -> Regex.t
val root : t -> Regex.node

val deriv_free : Regex.t -> Regex.node -> char -> Regex.node
(** Position-independent derivative of a look-free node, for
    {!Enumerate}; partial application to the arena shares one memo. The
    arena lock must be held. Raises [Invalid_argument] on a look-bearing
    node. *)
