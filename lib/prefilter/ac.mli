(** Aho-Corasick multi-literal matcher.

    Built once over the union of all rules' required literals
    ({!Prefilter.literals}), then driven over the input in a single
    pass; every occurrence of every literal is reported, which the
    ruleset scanner turns into [(rule, candidate offset)] pairs. A
    ruleset scan walks it once, inside the fused sweep, at every core
    count ({!step}, {!outputs}). The goto function is frozen into a
    compact CSR form (sorted byte / target arrays per state) so memory
    stays proportional to the trie, not [states x 256]. *)

type t

val build : string list -> t
(** Patterns are indexed by list position. Raises [Invalid_argument]
    on an empty literal (it would match at every offset). Duplicate
    literals are fine — each index is reported separately. *)

val pattern_count : t -> int
val state_count : t -> int

val find_iter : ?from:int -> t -> string -> (pat:int -> pos:int -> unit) -> unit
(** Single pass over [input] from [from]; [f ~pat ~pos] fires for every
    occurrence of pattern [pat] starting at byte offset [pos],
    in nondecreasing end-position order. *)

val find_all : ?from:int -> t -> string -> (int * int) list
(** [(pat, pos)] pairs, in the order {!find_iter} reports them. *)

(** {2 Incremental driving}

    The fused one-pass ruleset sweep interleaves the automaton walk
    with per-rule dispatch, so the walk is exposed one byte at a
    time. *)

val root : int
(** The start state. *)

val step : t -> int -> char -> int
(** One goto step (following failure links on miss): the state after
    reading one more byte. Feeding a string byte-by-byte from {!root}
    visits exactly the states {!find_iter} visits. *)

val outputs : t -> int -> int array
(** Pattern indices ending at this state (suffix outputs merged in).
    Returns the internal array — do not mutate. An occurrence of
    pattern [p] reported at input index [i] starts at
    [i + 1 - pattern_length t p]. *)

val pattern_length : t -> int -> int

