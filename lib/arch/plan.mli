(** Pre-decoded execution plans: the core simulator's one executor. A
    plan is a one-time lowering of a verified ISA program —
    per-instruction variants with the dispatch decision taken at build
    time, absolute jump targets, 256-bit bitsets for Or/Range character
    classes (negation folded in), pre-split fused base+close micro-ops,
    and a leading-filter table that drives {!Core}'s memchr-style skip
    loop.

    Execution reuses a {!scratch}: growable int arrays for the
    speculation stack and a bump-allocated arena for controller
    contexts, allocated at their first use and reused after that, so
    the inner loop never allocates. {!run} optionally
    records a per-cycle {!Trace}. Spans, stats and traces equal those of
    the instruction-at-a-time interpreter kept as the test oracle
    ([test/support/core_oracle.ml], pinned by the [@plancheck]
    battery). *)

type t

val of_program : Alveare_isa.Program.t -> t
(** Validates the program once ({!Alveare_isa.Program.validate_exn},
    raising [Invalid_argument] on a malformed binary) and lowers it.
    Callers holding a compiler-verified binary should use
    {!of_program_unchecked} instead: the whole point of a plan is to
    validate at build time, not per scan. *)

val of_program_unchecked : Alveare_isa.Program.t -> t
(** Lowering without the validity check, for binaries already verified
    (the compiler's post-emission self-check, or a loader that ran
    {!Alveare_isa.Verify}). Unclassifiable instructions lower to a
    poisoned op that raises [Machine.Exec_error (Malformed _)] if ever
    executed. *)

(** {1 Decoded ops}

    The per-instruction decoded form, exposed for {!Dfa_overlay}: the
    lazy-DFA overlay re-executes these ops symbolically to build its
    transition table, so it reads exactly the representation {!run}
    dispatches on. One op per source instruction; [fwd]/[bwd] are
    absolute targets; [close] is a [cl_*] code ([cl_none] = no fused
    close). *)
type op =
  | Eor
  | Lit of { chars : string; close : int }
  | Set of { bits : Bytes.t; close : int }
  | Open_quant of { qmin : int; qmax : int; greedy : bool; fwd : int }
  | Open_alt of { bwd : int; fwd : int }  (** [bwd = -1] when disabled *)
  | Close_op of int
  | Bad of string

val ops : t -> op array

val cl_none : int
val cl_close : int
val cl_alt_close : int
val cl_quant_greedy : int
val cl_quant_lazy : int

(** Leading-filter table: the first instruction's sub-match test when it
    is a base operator — the vector unit's start-offset prefilter. *)
type leading =
  | Lead_none
  | Lead_literal of string   (** leading AND: full literal must match *)
  | Lead_set of Bytes.t      (** leading OR/RANGE: 32-byte bitmap *)

val leading : t -> leading

val set_mem : Bytes.t -> char -> bool
(** Bitmap membership (one load + mask). *)

val literal_matches : string -> int -> string -> bool
(** [literal_matches input off lit]: does [lit] occur at [off]? (Bounds
    checked; the comparison itself uses unsafe reads.) *)

(** Reusable per-thread execution state. A scratch may be reused across
    any number of consecutive attempts and scans (it is reset in O(1)
    per attempt) but must not be shared between concurrent domains. *)
type scratch

val create_scratch : unit -> scratch
(** A fresh scratch: the record only. Its arrays are allocated at the
    first push or controller frame, so a scan whose attempts never get
    that far (no candidates, or every attempt on the lazy-DFA overlay)
    pays for no arrays. *)

val run :
  ?config:Machine.config -> ?trace:Trace.t -> stats:Machine.stats ->
  t -> scratch -> string -> int -> int option
(** One full matching attempt anchored at the given offset; returns the
    match end. Raises [Machine.Exec_error] on stack overflow or
    malformed execution. With [trace], records one {!Trace.event} per
    cycle: [Attempt_start], then one event per executed instruction
    ([Exec_close] only for a standalone close) and per rollback. *)
