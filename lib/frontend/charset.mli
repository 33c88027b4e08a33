(** Byte sets as sorted disjoint inclusive ranges — the mid-end's working
    representation for character classes (RANGE packing, complementation
    of negated classes). *)

type t

val empty : t
val of_ranges : (int * int) list -> t
val of_chars : char list -> t
val singleton : char -> t
val range : char -> char -> t
val union : t -> t -> t
val mem : char -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int

val complement : alphabet_size:int -> t -> t
(** Complement within [0, alphabet_size). The paper's universe is 128-char
    ASCII ('.' is "all the ASCII (128 chars) but \n"); binary workloads use
    256. *)

val clip : alphabet_size:int -> t -> t
(** Drop members at or above [alphabet_size]. *)

val ranges : t -> (int * int) list
(** Sorted disjoint inclusive ranges. *)

val range_count : t -> int

val chars : t -> char list
(** All members in ascending order. *)

val choose : t -> char option
val fold_chars : ('a -> char -> 'a) -> 'a -> t -> 'a
val equal : t -> t -> bool
val pp : t Fmt.t

val byte_classes : ?singles:string -> (char -> bool) list -> string * string
(** [byte_classes ~singles tests] is the coarsest partition of the 256
    byte values in which every byte of [singles] is a class of its own
    and no test tells two bytes of one class apart — the minterms of a
    pattern whose sets are [tests] and whose literal bytes are
    [singles]. [(cls, reps)]: [Char.code cls.[b]] is byte [b]'s class
    ([cls] has 256 bytes), classes are numbered in order of their
    smallest byte, and [reps.[k]] is the smallest byte of class [k] (so
    [String.length reps] classes, at most 256). Costs one pass over
    [singles] plus O(256) per test; deduplicate equal tests first. *)

(** Shorthand classes (paper §5). *)

(** [\d] *)
val digit : t

(** [\w] = [[a-zA-Z0-9_]] *)
val word : t

(** [\s] *)
val space : t

val newline : t
