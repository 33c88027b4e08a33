(** ALVEARE 43-bit instruction representation (paper §4, Fig. 1, Table 1).

    An instruction composes at most one operator per class — control (EoR),
    base (AND / OR / RANGE, optionally negated), and complex (OPEN sub-RE,
    close variants) — subject to the rule that only one active operator may
    own the 32-bit reference field. *)

(** Intra-character base operators (Table 1, class "Base"). *)
type base_op =
  | And   (** all enabled reference chars must match consecutive data chars *)
  | Or    (** one data char must equal one of the enabled reference chars *)
  | Range (** one data char must fall within one of up to two [lo,hi] pairs *)

(** Sub-RE closing operators (Table 1, class "Complex"). *)
type close_op =
  | Close        (** plain [)] — simple end of sub-RE *)
  | Quant_lazy   (** [)] + lazy quantifier *)
  | Quant_greedy (** [)] + greedy quantifier *)
  | Alt_close    (** [)|] — end of one alternation member *)

(** Reference field of an OPEN instruction (paper Fig. 2): five enabler
    bits, 6-bit min/max counters, 6-bit backward and forward relative
    jumps. Jumps are relative to the OPEN's own address. *)
type open_ref = {
  min_enabled : bool;
  max_enabled : bool;
  bwd_enabled : bool;
  fwd_enabled : bool;
  lazy_mode : bool;   (** true = lazy, false = greedy *)
  min_count : int;    (** 0..63 *)
  max_count : int;    (** 0..63, where 63 encodes an unbounded maximum *)
  bwd : int;          (** 0..63 *)
  fwd : int;          (** 0..511 (bits 8..6 live in the reserved MSBs) *)
}

type reference =
  | Ref_none
  | Ref_chars of string  (** 1..4 pattern bytes of a base operator *)
  | Ref_open of open_ref

type t = {
  opn : bool;                (** OPEN '(' operator active *)
  neg : bool;                (** NOT operator active *)
  base : base_op option;
  close : close_op option;
  reference : reference;
}

val unbounded_max : int
(** Counter value encoding an unbounded maximum (63, all six bits set). *)

val max_bounded_count : int
(** Largest representable bounded counter (62, per paper §4). *)

val max_jump : int
(** Largest 6-bit relative jump (63). *)

val max_extended_fwd : int
(** Largest forward jump using the three reserved reference MSBs (511).
    This extension is documented in DESIGN.md; strict paper encoding caps
    forward jumps at {!max_jump}. *)

val eor : t
(** The End-of-RE control instruction (all-zero opcode). *)

val is_eor : t -> bool

val base : ?neg:bool -> base_op -> string -> t
(** [base op chars] builds a base instruction over [chars] (1..4 bytes). *)

val open_sub : open_ref -> t
(** [open_sub r] builds an OPEN instruction with reference [r]. *)

val close : close_op -> t
(** [close op] builds a standalone closing instruction. *)

val fuse_close : t -> close_op -> t
(** [fuse_close i op] merges closing operator [op] into [i] (back-end
    operation fusion, paper §5). Raises [Invalid_argument] if [i] already
    carries a close operator. *)

type error =
  | Bad_reference of string
  | Bad_composition of string
  | Bad_field of string

val error_message : error -> string

val validate : t -> (unit, error) result
(** Structural well-formedness: reference ownership, field ranges, NOT
    composition rules. *)

val equal : t -> t -> bool
val equal_base_op : base_op -> base_op -> bool
val equal_close_op : close_op -> close_op -> bool

val pp : t Fmt.t
(** Assembly-style printer, e.g. [( {1,inf} bwd=1 fwd=2] or
    [NOT RANGE 'AZ' )QUANT]. *)

val pp_base_op : base_op Fmt.t
val pp_close_op : close_op Fmt.t
val to_string : t -> string
