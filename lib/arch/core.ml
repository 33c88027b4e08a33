(* Cycle-level model of one ALVEARE core (paper §6, Fig. 3).

   What is modelled, component by component:
   - (A) memories: the program is held as a decoded instruction array
     (instruction memory with triple prefetch — sequential, backward and
     forward targets — makes every instruction complete in one cycle, so
     jumps are free and the model charges one cycle per executed
     instruction); the data stream is the input string (the two-level
     data buffer is a bandwidth concern handled by the platform model).
   - (B) decode + backup register: a failed attempt restarts from the
     first instruction at the next candidate offset with no refill
     penalty.
   - (C) vector unit + aggregator: a base instruction evaluates up to
     four pattern chars in one cycle; during start-of-match scanning the
     four compute units test [compute_units] adjacent offsets per cycle,
     so stretches rejected by the leading instruction cost
     ceil(len / compute_units) cycles.
   - (D) controller + speculation stack: complex operators manipulate a
     stack of execution snapshots (quantifier bounds, match count, data
     position — paper §6); a mismatch pops one snapshot per cycle
     (rollback) or, with an empty stack, abandons the attempt.

   Matching semantics are PCRE backtracking order, differentially tested
   against the Backtrack oracle.

   One executor implements this model, the pre-decoded plan path
   (Plan): the program is lowered once — bitmap character classes,
   absolute jump targets, reusable speculation scratch — and every scan
   drives one Scan_cursor, the dense scan skipping rejected-offset runs
   with a memchr-style loop. The instruction-at-a-time interpreter it
   replaced is the test oracle test/support/core_oracle.ml; @plancheck
   holds spans, stats and traces equal. *)

module Span = Alveare_engine.Semantics

type config = Machine.config = {
  compute_units : int;        (* CUs in the vector unit (paper: 4) *)
  stack_capacity : int option; (* None = unbounded speculation stack *)
}

let default_config = Machine.default_config

type stats = Machine.stats = {
  mutable cycles : int;          (* total: instructions + rollbacks + scan *)
  mutable instructions : int;    (* instructions executed *)
  mutable rollbacks : int;       (* speculation-stack pops on mismatch *)
  mutable stack_pushes : int;
  mutable max_stack_depth : int;
  mutable scan_cycles : int;     (* vector-unit start-offset pruning *)
  mutable attempts : int;        (* full matching attempts started *)
  mutable offsets_scanned : int;
  mutable offsets_pruned : int;  (* offsets rejected without an attempt *)
  mutable match_count : int;
}

let fresh_stats = Machine.fresh_stats

type error = Machine.error =
  | Stack_overflow of int
  | Malformed of { pc : int; reason : string }

let error_message = Machine.error_message

exception Exec_error = Machine.Exec_error

(* --- Scanners -------------------------------------------------------------

   Every scan drives one [Scan_cursor] with a candidate source: [next
   offset] is the smallest offset >= [offset] worth attempting, or any
   value past the end of input when none is left. *)

let scan ?trace ?dfa ~config ~stats ~all ~next plan input from =
  let n = String.length input in
  let c =
    Scan_cursor.start ?trace ~dfa ~config ~stats ~all plan
      (Plan.create_scratch ()) input from
  in
  let rec go offset =
    if offset <= n then begin
      let cand = next offset in
      if cand <= n then go (Scan_cursor.offer c cand)
    end
  in
  (try go from with e -> Scan_cursor.release c; raise e);
  Scan_cursor.finish c

(* The dense source, from the leading filter: a memchr-style skip loop
   over unsafe byte reads to the next offset whose byte can start the
   filter (the cursor then runs the full test), or [n] when none is
   left — offset [n] fails any filter that consumes a byte, so offering
   it prunes the tail. The run lengths, and hence every counter and
   scan-cycle charge, are those of a per-offset test. *)
let dense_next plan input =
  let n = String.length input in
  match Plan.leading plan with
  | Plan.Lead_set bits ->
    fun offset ->
      let j = ref offset in
      while !j < n && not (Plan.set_mem bits (String.unsafe_get input !j))
      do incr j done;
      !j
  | Plan.Lead_literal lit when String.length lit > 0 ->
    let c0 = String.unsafe_get lit 0 in
    fun offset ->
      let j = ref offset in
      while !j < n && not (Char.equal (String.unsafe_get input !j) c0)
      do incr j done;
      !j
  | Plan.Lead_literal _ | Plan.Lead_none ->
    (* no filter, or a zero-width one: every offset is a candidate *)
    Fun.id

(* Candidate source from compile-time prefilter facts. Soundness: the
   first set over-approximates, so a byte outside it can never begin a
   match, and the skip loop is only engaged for non-nullable patterns —
   empty matches could otherwise start at any offset, including the
   end-of-input position. Anchored patterns attempt only at the initial
   offset. *)
let prefilter_next ~anchor_at prefilter plan input =
  match prefilter with
  | Some pf when Alveare_prefilter.Prefilter.first_usable pf ->
    if pf.Alveare_prefilter.Prefilter.anchored then fun offset ->
      if offset = anchor_at then offset else max_int
    else fun offset ->
      Option.value ~default:max_int
        (Alveare_prefilter.Prefilter.next_candidate pf input offset)
  | Some _ | None -> dense_next plan input

(* --- Entry points -------------------------------------------------------

   Every entry point takes the raw program plus an optional pre-built
   [?plan]. Without one it lowers the program with [Plan.of_program],
   which checks it; a caller that provides a plan lowered from an
   already-verified binary skips both (Compile.compiled always does). *)

let plan_of ?plan program =
  match plan with Some p -> p | None -> Plan.of_program program

let match_at ?(config = default_config) ?(stats = fresh_stats ()) ?plan
    program input start : int option =
  Plan.run ~config ~stats (plan_of ?plan program) (Plan.create_scratch ())
    input start

let search ?(config = default_config) ?(stats = fresh_stats ()) ?prefilter
    ?plan ?dfa ?(from = 0) program input : Span.span option =
  let plan = plan_of ?plan program in
  let next = prefilter_next ~anchor_at:from prefilter plan input in
  match scan ?dfa ~config ~stats ~all:false ~next plan input from with
  | [] -> None
  | span :: _ -> Some span

let find_all ?(config = default_config) ?(stats = fresh_stats ()) ?trace
    ?prefilter ?plan ?dfa program input : Span.span list =
  let plan = plan_of ?plan program in
  let next = prefilter_next ~anchor_at:0 prefilter plan input in
  scan ?trace ?dfa ~config ~stats ~all:true ~next plan input 0

(* Scan restricted to an explicit sorted candidate-offset array (from
   the ruleset Aho-Corasick pass): every other offset is pruned without
   an attempt, with the same accounting as the skip loop. The scan only
   ever queries non-decreasing offsets, so a monotone cursor into the
   sorted array answers each query in amortised O(1). *)
let find_all_candidates ?(config = default_config) ?(stats = fresh_stats ())
    ~candidates ?plan ?dfa program input : Span.span list =
  let plan = plan_of ?plan program in
  let m = Array.length candidates in
  let pos = ref 0 in
  let next offset =
    while !pos < m && Array.unsafe_get candidates !pos < offset do incr pos done;
    if !pos >= m then max_int else Array.unsafe_get candidates !pos
  in
  scan ?dfa ~config ~stats ~all:true ~next plan input 0
