(** Binary/program verifier (bytecode-verifier style), the one place
    that decides what an instruction array must satisfy before it
    reaches a plan.

    Statically proves that an instruction array is safe to hand to the
    speculative core: every jump target lands inside the program, every
    instruction is reachable, speculation pushes and pops balance (each
    OPEN has a close of the matching kind) with a computed worst-case
    stack depth, and no cycle of non-consuming edges exists — the
    zero-advance divergence mode of backtracking matchers.

    Both entry points accept arbitrary instruction arrays and collect
    EVERY violation rather than stopping at the first, so a corrupted
    image produces a full diagnosis. {!structural} is the first phase
    alone: the shape the core needs to execute without indexing outside
    the program or aborting on a mismatched close. {!run} adds the graph
    checks (reachability, zero-advance loops) and the report. *)

type violation =
  | Malformed_instruction of { pc : int; error : Instruction.error }
  | Empty_program
  | Missing_eor
  | Interior_eor of { pc : int }
  | Bad_jump of { pc : int; which : string; target : int; length : int }
      (** a jump field the core would dereference lands outside the
          program; [which] is ["forward"] or ["backward"] *)
  | Unbalanced_close of { pc : int }  (** close with no open to match *)
  | Unclosed_open of { pc : int }     (** open never closed *)
  | Close_mismatch of { open_pc : int; close_pc : int; reason : string }
      (** the close kind cannot terminate this open's context (e.g. a
          quantified close against an alternation OPEN) — the core
          aborts on this at runtime *)
  | Unreachable of { pc : int }  (** dead instruction *)
  | Epsilon_loop of { cycle : int list }
      (** addresses of a cycle traversable without consuming input —
          the program can diverge at a fixed cursor *)

val violation_message : violation -> string
val pp_violation : violation Fmt.t

val violation_pc : int -> violation -> int
(** [violation_pc length v]: the address [v] points at in a program of
    [length] instructions ([length] itself for [Missing_eor]). Both
    entry points order their violations by it. *)

type report = {
  instructions : int;
  reachable : int;        (** = [instructions] for a clean program *)
  cfg_edges : int;
  pairs : (int * int) list;  (** matched (open, close) address pairs *)
  open_depth : int;          (** maximum static sub-RE nesting *)
  stack_bound : int option;
      (** worst-case speculation-stack depth over any input; [None] when
          an unbounded quantifier makes it input-dependent *)
  warnings : string list;
      (** suspicious but executable constructs (e.g. a greedy OPEN
          closed by a lazy close, a disabled forward-jump enable bit on
          a quantifier) *)
}

val pp_report : report Fmt.t

val structural : Program.t -> violation list
(** The structural phase alone: malformed instructions, EoR placement,
    jump targets (every field the core dereferences — [fwd] whatever its
    enable bit says), open/close balance and close kinds. [[]] when the
    program is structurally sound; violations ordered by address.
    [Plan.of_program], [Binary.to_bytes], [Binary.of_bytes
    ~verify:false], [Assembler.parse] and [Compile ~verify:false] run
    it. *)

val run : Program.t -> (report, violation list) result
(** {!structural}, then, when it is clean, the graph checks
    ([Unreachable], [Epsilon_loop]). Violations are ordered by program
    address. *)

val run_exn : Program.t -> report
(** @raise Invalid_argument listing the first violation. *)
