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

   Two executors implement this model. The default is the pre-decoded
   plan path (Plan): the program is lowered once — bitmap character
   classes, absolute jump targets, reusable speculation scratch — and
   the dense scan skips rejected-offset runs with a memchr-style loop.
   The legacy instruction-at-a-time interpreter below is kept as the
   traced executor (waveforms need per-cycle events) and as the
   differential oracle behind [~use_plan:false]; both produce identical
   spans and bit-identical stats, which @plancheck enforces. *)

module I = Alveare_isa.Instruction
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

(* Controller context: the register view of the innermost open sub-RE.
   Snapshots capture (pc, cursor, context list); the persistent list makes
   a snapshot O(1), standing in for the hardware's fixed-size stack
   entries. (The plan executor replaces both with index-linked frames in
   a preallocated arena — same sharing, no allocation.) *)
type ctx =
  | Cquant of {
      open_pc : int;
      count : int;
      iter_start : int;  (* cursor when this iteration began *)
      qmin : int;
      qmax : int;        (* I.unbounded_max = infinite *)
      greedy : bool;
      fwd : int;         (* absolute continuation address *)
    }
  | Calt of { open_pc : int; fwd : int }

type snapshot = {
  s_pc : int;
  s_cursor : int;
  s_qctx : ctx list;
}

(* Base-operator datapath (vector unit + aggregator, Fig. 3 (C)).
   Returns the number of chars consumed, or None on mismatch. *)
let eval_base input cursor op neg chars =
  let n = String.length input in
  match (op : I.base_op) with
  | I.And ->
    let k = String.length chars in
    let rec all j =
      j >= k || (Char.equal input.[cursor + j] chars.[j] && all (j + 1))
    in
    if cursor + k <= n && all 0 then Some k else None
  | I.Or ->
    if cursor >= n then None
    else begin
      let c = input.[cursor] in
      let k = String.length chars in
      let rec any j = j < k && (Char.equal c chars.[j] || any (j + 1)) in
      let hit = any 0 in
      if (if neg then not hit else hit) then Some 1 else None
    end
  | I.Range ->
    if cursor >= n then None
    else begin
      let c = input.[cursor] in
      let k = String.length chars / 2 in
      let rec any j =
        j < k && ((chars.[2 * j] <= c && c <= chars.[(2 * j) + 1]) || any (j + 1))
      in
      let hit = any 0 in
      if (if neg then not hit else hit) then Some 1 else None
    end

(* One full matching attempt anchored at [start]: returns the match end.
   This is the controller FSM (Fig. 3 (D)). *)
let attempt ?trace ~config ~stats (program : I.t array) (input : string)
    (start : int) : int option =
  stats.attempts <- stats.attempts + 1;
  let stack = ref [] in
  let depth = ref 0 in
  let emit pc cursor kind =
    match trace with
    | None -> ()
    | Some t ->
      Trace.record t
        { Trace.cycle = stats.cycles; pc; cursor; stack_depth = !depth; kind }
  in
  emit 0 start Trace.Attempt_start;
  let push snap =
    (match config.stack_capacity with
     | Some cap when !depth >= cap -> raise (Exec_error (Stack_overflow cap))
     | Some _ | None -> ());
    stack := snap :: !stack;
    incr depth;
    stats.stack_pushes <- stats.stack_pushes + 1;
    if !depth > stats.max_stack_depth then stats.max_stack_depth <- !depth
  in
  let malformed pc reason = raise (Exec_error (Malformed { pc; reason })) in
  let rec step pc cursor qctx =
    let i = program.(pc) in
    stats.instructions <- stats.instructions + 1;
    stats.cycles <- stats.cycles + 1;
    if I.is_eor i then begin
      emit pc cursor Trace.Exec_eor;
      Some cursor
    end
    else if i.I.opn then begin
      emit pc cursor Trace.Exec_open;
      exec_open pc cursor qctx i
    end
    else begin
      match i.I.base with
      | Some op ->
        (match i.I.reference with
         | I.Ref_chars chars ->
           (match eval_base input cursor op i.I.neg chars with
            | Some consumed ->
              emit pc cursor
                (Trace.Exec_base
                   { op; neg = i.I.neg; matched = true; consumed });
              after_submatch pc (cursor + consumed) qctx i.I.close
            | None ->
              emit pc cursor
                (Trace.Exec_base
                   { op; neg = i.I.neg; matched = false; consumed = 0 });
              rollback ())
         | I.Ref_none | I.Ref_open _ ->
           malformed pc "base operator without character reference")
      | None ->
        (match i.I.close with
         | Some close ->
           emit pc cursor (Trace.Exec_close close);
           exec_close pc cursor qctx close
         | None -> malformed pc "instruction with no active operator")
    end
  (* A base sub-match succeeded; apply the fused close if present. *)
  and after_submatch pc cursor qctx close =
    match close with
    | None -> step (pc + 1) cursor qctx
    | Some c -> exec_close pc cursor qctx c
  and exec_open pc cursor qctx i =
    match i.I.reference with
    | I.Ref_open o ->
      let fwd = pc + o.I.fwd in
      if o.I.min_enabled || o.I.max_enabled then begin
        (* Quantifier sub-RE. *)
        let qmin = if o.I.min_enabled then o.I.min_count else 0 in
        let qmax = if o.I.max_enabled then o.I.max_count else I.unbounded_max in
        let greedy = not o.I.lazy_mode in
        let ctx =
          Cquant { open_pc = pc; count = 0; iter_start = cursor; qmin; qmax;
                   greedy; fwd }
        in
        if qmin > 0 then step (pc + 1) cursor (ctx :: qctx)
        else if qmax = 0 then step fwd cursor qctx
        else if greedy then begin
          push { s_pc = fwd; s_cursor = cursor; s_qctx = qctx };
          step (pc + 1) cursor (ctx :: qctx)
        end
        else begin
          push { s_pc = pc + 1; s_cursor = cursor; s_qctx = ctx :: qctx };
          step fwd cursor qctx
        end
      end
      else begin
        (* Alternation member. *)
        if o.I.bwd_enabled then
          push { s_pc = pc + o.I.bwd; s_cursor = cursor; s_qctx = qctx };
        step (pc + 1) cursor (Calt { open_pc = pc; fwd } :: qctx)
      end
    | I.Ref_none | I.Ref_chars _ -> malformed pc "OPEN without open reference"
  and exec_close pc cursor qctx close =
    match close, qctx with
    | I.Close, Calt _ :: rest -> step (pc + 1) cursor rest
    | I.Alt_close, Calt { fwd; _ } :: rest -> step fwd cursor rest
    | (I.Quant_greedy | I.Quant_lazy), Cquant c :: rest ->
      let count = c.count + 1 in
      let body = c.open_pc + 1 in
      if count < c.qmin then
        step body cursor (Cquant { c with count; iter_start = cursor } :: rest)
      else if c.qmax <> I.unbounded_max && count >= c.qmax then
        step c.fwd cursor rest
      else if cursor = c.iter_start then
        (* Zero-width iteration past the minimum ends the loop (PCRE). *)
        step c.fwd cursor rest
      else if c.greedy then begin
        push { s_pc = c.fwd; s_cursor = cursor; s_qctx = rest };
        step body cursor (Cquant { c with count; iter_start = cursor } :: rest)
      end
      else begin
        push
          { s_pc = body; s_cursor = cursor;
            s_qctx = Cquant { c with count; iter_start = cursor } :: rest };
        step c.fwd cursor rest
      end
    | (I.Close | I.Alt_close), (Cquant _ :: _ | [])
    | (I.Quant_greedy | I.Quant_lazy), (Calt _ :: _ | []) ->
      malformed pc "close operator does not match the open context"
  and rollback () =
    match !stack with
    | [] -> None
    | snap :: rest ->
      stack := rest;
      decr depth;
      stats.rollbacks <- stats.rollbacks + 1;
      stats.cycles <- stats.cycles + 1;
      emit snap.s_pc snap.s_cursor Trace.Rollback;
      step snap.s_pc snap.s_cursor snap.s_qctx
  in
  step 0 start []

(* Vector-unit prefilter: does the leading instruction sub-match at this
   offset? Only base leading instructions can be prefiltered. *)
let leading_filter (program : I.t array) =
  match program.(0) with
  | { I.base = Some op; reference = I.Ref_chars chars; neg; opn = false; _ } ->
    Some (fun input cursor -> eval_base input cursor op neg chars <> None)
  | _ -> None

(* Scan for matches from [from]; [all] selects first-match or all
   non-overlapping matches. The scan models the vector unit: runs of
   offsets rejected without an attempt — by the leading instruction or
   by the software prefilter — cost ceil(run / compute_units) cycles.

   [next] generalises the candidate source: [next offset] is the
   smallest offset >= [offset] worth attempting, or [None] when no
   candidate remains before end-of-input. The dense scan uses the
   identity; the prefiltered scans skip straight to the next candidate.
   Skipped offsets are still counted in [offsets_scanned] and
   [offsets_pruned] and charged the same vector-unit scan cycles, so
   cycle/offset accounting stays comparable across modes (the ablation
   tables rely on this). *)
let scan_from ?trace ~config ~stats ~all ~next program input from =
  let n = String.length input in
  let filter = leading_filter program in
  let found = ref [] in
  let rejected_run = ref 0 in
  let flush_run () =
    if !rejected_run > 0 then begin
      let cycles =
        (!rejected_run + config.compute_units - 1) / config.compute_units
      in
      stats.scan_cycles <- stats.scan_cycles + cycles;
      stats.cycles <- stats.cycles + cycles;
      (match trace with
       | None -> ()
       | Some t ->
         Trace.record t
           { Trace.cycle = stats.cycles; pc = 0; cursor = 0; stack_depth = 0;
             kind = Trace.Scan_skip !rejected_run });
      rejected_run := 0
    end
  in
  let prune k =
    stats.offsets_scanned <- stats.offsets_scanned + k;
    stats.offsets_pruned <- stats.offsets_pruned + k;
    rejected_run := !rejected_run + k
  in
  let rec go offset =
    if offset > n then flush_run ()
    else begin
      match next offset with
      | None ->
        (* No candidate remains: offsets offset..n are all pruned. *)
        prune (n - offset + 1);
        flush_run ()
      | Some cand ->
        if cand > offset then prune (cand - offset);
        stats.offsets_scanned <- stats.offsets_scanned + 1;
        let prefilter_pass =
          match filter with
          | Some f -> cand < n && f input cand
          | None -> true
        in
        if not prefilter_pass then begin
          stats.offsets_pruned <- stats.offsets_pruned + 1;
          incr rejected_run;
          go (cand + 1)
        end
        else begin
          flush_run ();
          match attempt ?trace ~config ~stats program input cand with
          | Some stop ->
            let span = { Span.start = cand; stop } in
            found := span :: !found;
            stats.match_count <- stats.match_count + 1;
            if all then go (Span.next_scan_position span) else flush_run ()
          | None -> go (cand + 1)
        end
    end
  in
  go from;
  List.rev !found

let dense_next offset = Some offset

(* --- Plan-path scanners -------------------------------------------------

   Same accounting, pre-decoded execution: every plan-path scan drives
   one [Scan_cursor] with its candidate source. [scan_plan] takes an
   arbitrary source; [scan_plan_dense] derives one from the leading
   filter, a memchr-style skip loop over unsafe byte reads instead of a
   per-offset closure call, with the run lengths — and hence every
   counter and scan-cycle charge — unchanged. *)

let scan_plan ?dfa ~config ~stats ~all ~next plan scratch input from =
  let n = String.length input in
  let c = Scan_cursor.start ~dfa ~config ~stats ~all plan scratch input from in
  let rec go offset =
    if offset <= n then
      match next offset with
      | Some cand -> go (Scan_cursor.offer c cand)
      | None -> ()
  in
  (try go from with e -> Scan_cursor.release c; raise e);
  Scan_cursor.finish c

(* [skip offset] = smallest offset >= [offset] whose byte can start the
   leading filter (the cursor then runs the full test), or [n] when none
   is left: offset [n] itself fails any filter that consumes a byte, so
   offering it prunes the tail. *)
let scan_plan_dense ?dfa ~config ~stats ~all plan scratch input from =
  let n = String.length input in
  let skip =
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
  in
  let c = Scan_cursor.start ~dfa ~config ~stats ~all plan scratch input from in
  let rec go offset =
    if offset <= n then go (Scan_cursor.offer c (skip offset))
  in
  (try go from with e -> Scan_cursor.release c; raise e);
  Scan_cursor.finish c

(* --- Entry points -------------------------------------------------------

   Every entry point takes the raw program plus an optional pre-built
   [?plan]. The plan path is the default; it validates once at plan
   construction (or not at all when the caller provides a plan lowered
   from an already-verified binary — Compile.compiled always does).
   [~use_plan:false] forces the legacy interpreter (which re-validates
   per call, as before); a [?trace] also routes to the interpreter,
   since waveforms want its per-cycle events. *)

let plan_of ?plan program =
  match plan with Some p -> p | None -> Plan.of_program program

let scratch_of ?scratch () =
  match scratch with Some s -> s | None -> Plan.create_scratch ()

let match_at ?(config = default_config) ?stats ?trace ?plan ?dfa
    ?(use_plan = true) ?scratch (program : I.t array) input start : int option =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  match trace with
  | Some _ ->
    Alveare_isa.Program.validate_exn program;
    attempt ?trace ~config ~stats program input start
  | None when not use_plan ->
    Alveare_isa.Program.validate_exn program;
    attempt ~config ~stats program input start
  | None ->
    let plan = plan_of ?plan program in
    let scratch = scratch_of ?scratch () in
    (match dfa with
     | Some fam when Dfa_overlay.plan_of fam == plan ->
       Dfa_overlay.run (Dfa_overlay.get fam) ~config ~stats scratch input start
     | Some _ | None -> Plan.run ~config ~stats plan scratch input start)

(* Candidate sources from compile-time prefilter facts are built inline
   in [search]/[find_all] (they close over the input string). Soundness:
   the first set over-approximates, so a byte outside it can never begin
   a match, and the skip loop is only engaged for non-nullable patterns
   — empty matches could otherwise start at any offset, including the
   end-of-input position. Anchored patterns attempt only at the initial
   offset. *)

let prefilter_next ?(anchor_at = 0) prefilter input =
  match prefilter with
  | Some pf when Alveare_prefilter.Prefilter.first_usable pf ->
    if pf.Alveare_prefilter.Prefilter.anchored then
      Some (fun offset -> if offset = anchor_at then Some offset else None)
    else
      Some
        (fun offset ->
           Alveare_prefilter.Prefilter.next_candidate pf input offset)
  | Some _ | None -> None

let search ?(config = default_config) ?stats ?trace ?prefilter ?plan ?dfa
    ?(use_plan = true) ?scratch ?(from = 0) program input
  : Span.span option =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let legacy trace =
    Alveare_isa.Program.validate_exn program;
    let next =
      match prefilter_next ~anchor_at:from prefilter input with
      | Some next -> next
      | None -> dense_next
    in
    scan_from ?trace ~config ~stats ~all:false ~next program input from
  in
  let spans =
    match trace with
    | Some _ -> legacy trace
    | None when not use_plan -> legacy None
    | None ->
      let plan = plan_of ?plan program in
      let scratch = scratch_of ?scratch () in
      (match prefilter_next ~anchor_at:from prefilter input with
       | Some next ->
         scan_plan ?dfa ~config ~stats ~all:false ~next plan scratch input from
       | None ->
         scan_plan_dense ?dfa ~config ~stats ~all:false plan scratch input from)
  in
  match spans with [] -> None | span :: _ -> Some span

let find_all ?(config = default_config) ?stats ?trace ?prefilter ?plan ?dfa
    ?(use_plan = true) ?scratch program input : Span.span list =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let legacy trace =
    Alveare_isa.Program.validate_exn program;
    let next =
      match prefilter_next prefilter input with
      | Some next -> next
      | None -> dense_next
    in
    scan_from ?trace ~config ~stats ~all:true ~next program input 0
  in
  match trace with
  | Some _ -> legacy trace
  | None when not use_plan -> legacy None
  | None ->
    let plan = plan_of ?plan program in
    let scratch = scratch_of ?scratch () in
    (match prefilter_next prefilter input with
     | Some next ->
       scan_plan ?dfa ~config ~stats ~all:true ~next plan scratch input 0
     | None -> scan_plan_dense ?dfa ~config ~stats ~all:true plan scratch input 0)

(* Scan restricted to an explicit sorted candidate-offset array (from
   the ruleset Aho-Corasick pass): every other offset is pruned without
   an attempt, with the same accounting as the skip loop. The scan only
   ever queries non-decreasing offsets, so a monotone cursor into the
   sorted array answers each query in amortised O(1) (the old per-offset
   binary search was O(log m) each). *)
let candidate_next candidates =
  let m = Array.length candidates in
  let pos = ref 0 in
  fun offset ->
    while !pos < m && Array.unsafe_get candidates !pos < offset do incr pos done;
    if !pos >= m then None else Some (Array.unsafe_get candidates !pos)

let find_all_candidates ?(config = default_config) ?stats ?trace ~candidates
    ?plan ?dfa ?(use_plan = true) ?scratch program input : Span.span list =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  if trace <> None || not use_plan then begin
    Alveare_isa.Program.validate_exn program;
    scan_from ?trace ~config ~stats ~all:true ~next:(candidate_next candidates)
      program input 0
  end
  else begin
    let plan = plan_of ?plan program in
    let scratch = scratch_of ?scratch () in
    scan_plan ?dfa ~config ~stats ~all:true ~next:(candidate_next candidates)
      plan scratch input 0
  end

let matches ?config ?stats ?prefilter ?plan ?dfa ?use_plan ?scratch program
    input =
  Option.is_some
    (search ?config ?stats ?prefilter ?plan ?dfa ?use_plan ?scratch program
       input)
