(** Cycle-level model of one ALVEARE core (paper §6, Fig. 3): memories
    with triple prefetch, decode with backup register, 4-wide vector unit
    with aggregator, and the speculative controller with its rollback
    stack. Matching semantics are PCRE backtracking order (differentially
    tested against {!Alveare_engine.Backtrack}).

    One executor implements the model: the program is lowered once into
    a pre-decoded {!Plan.t} — bitmap character classes, absolute jump
    targets, reusable speculation scratch — and every scan drives a
    {!Scan_cursor}, the one copy of the scan-loop body, which the fused
    ruleset sweep drives too; the dense scan skips with a memchr-style
    loop. Validation happens at plan build, not per call. The
    instruction-at-a-time interpreter the plan replaced is the test
    oracle [test/support/core_oracle.ml]; the [@plancheck] battery holds
    spans, every {!stats} counter and the {!Trace} equal to it.

    Every entry point accepts an optional pre-built [?plan] (skip
    re-lowering; {!Alveare_compiler} compilations carry one). The scans
    ({!search}, {!find_all}, {!find_all_candidates}) also accept a
    [?dfa] overlay family ({!Dfa_overlay}): attempts whose execution
    stays inside the pattern's backtracking-free fragments then run at
    one table lookup per byte, with bit-identical spans and stats. The
    family must have been built from the same [?plan] value (physical
    equality) — otherwise it is silently ignored — and is also ignored
    on traced scans and for finite [stack_capacity] configs.
    {!Alveare_compiler} compilations carry a matching family. The
    single attempt of {!match_at} runs on the plan alone. *)

type config = Machine.config = {
  compute_units : int;          (** CUs in the vector unit (paper: 4) *)
  stack_capacity : int option;  (** [None] = unbounded speculation stack *)
}

val default_config : config

type stats = Machine.stats = {
  mutable cycles : int;        (** instructions + rollbacks + scan pruning *)
  mutable instructions : int;
  mutable rollbacks : int;
  mutable stack_pushes : int;
  mutable max_stack_depth : int;
  mutable scan_cycles : int;   (** vector-unit start-offset pruning cycles *)
  mutable attempts : int;
  mutable offsets_scanned : int;
  mutable offsets_pruned : int;
      (** offsets rejected without a matching attempt — by the leading
          instruction's vector-unit gate or by the software prefilter.
          Counted identically in dense and prefiltered scans, so
          ablation tables stay comparable. *)
  mutable match_count : int;
}

val fresh_stats : unit -> stats

type error = Machine.error =
  | Stack_overflow of int
  | Malformed of { pc : int; reason : string }

val error_message : error -> string

exception Exec_error of error
(** Same exception as {!Machine.Exec_error}. *)

val match_at :
  ?config:config -> ?stats:stats -> ?plan:Plan.t ->
  Alveare_isa.Program.t -> string -> int -> int option
(** Anchored attempt at an offset, on {!Plan.run}; returns the match
    end. *)

val search :
  ?config:config -> ?stats:stats ->
  ?prefilter:Alveare_prefilter.Prefilter.t ->
  ?plan:Plan.t -> ?dfa:Dfa_overlay.family -> ?from:int ->
  Alveare_isa.Program.t -> string -> Alveare_engine.Semantics.span option
(** Leftmost match at or after [from]. When [prefilter] is passed and
    usable ({!Alveare_prefilter.Prefilter.first_usable}), offsets whose
    byte cannot start a match are skipped without an attempt; results
    are identical to the dense scan. *)

val find_all :
  ?config:config -> ?stats:stats -> ?trace:Trace.t ->
  ?prefilter:Alveare_prefilter.Prefilter.t ->
  ?plan:Plan.t -> ?dfa:Dfa_overlay.family ->
  Alveare_isa.Program.t -> string -> Alveare_engine.Semantics.span list
(** All non-overlapping matches, left to right. [trace] records one
    {!Trace.event} per cycle for waveform inspection ({!Vcd}); a traced
    scan runs on {!Plan.run}, never on the overlay. [prefilter] as in
    {!search}. *)

val find_all_candidates :
  ?config:config -> ?stats:stats -> candidates:int array ->
  ?plan:Plan.t -> ?dfa:Dfa_overlay.family ->
  Alveare_isa.Program.t -> string -> Alveare_engine.Semantics.span list
(** Like {!find_all} but attempts only at the given sorted start
    offsets (e.g. from the ruleset Aho-Corasick pass); all other
    offsets are counted as pruned, and the cursor into [candidates]
    advances monotonically with the scan (amortised O(1) per offset).
    Equal to {!find_all} whenever [candidates] contains every true
    match start. *)

val candidate_source :
  ?prefilter:Alveare_prefilter.Prefilter.t -> ?candidates:int array ->
  Plan.t -> string -> int -> int
(** The candidate source a scan of [input] attempts from, as
    {!find_all_candidates} ([candidates]) or {!find_all} ([prefilter],
    or the dense scan) use it: applied to an offset, the smallest
    offset at or after it worth attempting. When none is left, the
    dense source answers the end of input (where its leading test
    fails) and the others a value past it. The [candidates] source is a cursor that
    only moves forward, so query offsets must not decrease; take a
    fresh source per scan. *)
