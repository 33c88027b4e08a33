(** A compiled ALVEARE program: instructions terminated by End-of-RE.
    The type carries no validity guarantee; {!Verify.structural} and
    {!Verify.run} check an array. *)

type t = Instruction.t array

val length : t -> int

val code_size : t -> int
(** Instruction count excluding the EoR terminator — the metric the paper's
    Table 2 reports. *)

val equal : t -> t -> bool

val pp : t Fmt.t
(** Disassembly listing, one instruction per line with addresses. *)

val to_string : t -> string

(** Operator-class population counts (compiler statistics). *)
type histogram = {
  n_base_and : int;
  n_base_or : int;
  n_base_range : int;
  n_not : int;
  n_open : int;
  n_close : int;
  n_quant_greedy : int;
  n_quant_lazy : int;
  n_alt_close : int;
  n_eor : int;
}

val histogram : t -> histogram
