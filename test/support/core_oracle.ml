(* Reference executor for the cycle-level core: the instruction-at-a-time
   interpreter that {!Alveare_arch.Plan} replaced, kept as a test oracle.
   It dispatches on the raw [Instruction.t] records every cycle, scans
   Or/Range references byte by byte and keeps its speculation stack as
   a list of snapshots over persistent context lists — a direct
   transcription of the controller FSM (paper §6, Fig. 3 (D)), which is
   what an oracle should be. Spans, every stats counter and the
   per-cycle trace must equal [Core]'s; the [@plancheck] battery
   compares them.

   Its candidate sources are written independently of [Core]'s skip
   loops: the prefilter source queries the first set per offset, and
   the candidate source searches the sorted array linearly. *)

module I = Alveare_isa.Instruction
module Span = Alveare_engine.Semantics
module Trace = Alveare_arch.Trace
module Pf = Alveare_prefilter.Prefilter
open Alveare_arch.Machine

(* Controller context: the register view of the innermost open sub-RE.
   Snapshots capture (pc, cursor, context list); the persistent list makes
   a snapshot O(1), standing in for the hardware's fixed-size stack
   entries. *)
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

(* --- Entry points -------------------------------------------------------

   Each checks the program per call with the verifier's structural phase
   (the check [Plan.of_program] makes, so both executors refuse the same
   programs), then scans from a candidate source: [Some offset] is the
   smallest offset >= the query worth attempting. *)

let check_program program =
  match Alveare_isa.Verify.structural program with
  | [] -> ()
  | v :: _ ->
    invalid_arg ("Core_oracle: " ^ Alveare_isa.Verify.violation_message v)

let prefilter_next prefilter input =
  match prefilter with
  | Some pf when Pf.first_usable pf -> Pf.next_candidate pf input
  | Some _ | None -> Option.some

let run ?(config = default_config) ?(stats = fresh_stats ()) ?trace ~all ~next
    program input from =
  check_program program;
  scan_from ?trace ~config ~stats ~all ~next program input from

let find_all ?config ?stats ?trace ?prefilter program input =
  run ?config ?stats ?trace ~all:true
    ~next:(prefilter_next prefilter input) program input 0

let search ?config ?stats ?prefilter ?(from = 0) program input =
  match
    run ?config ?stats ~all:false
      ~next:(prefilter_next prefilter input) program input from
  with
  | [] -> None
  | span :: _ -> Some span

let find_all_candidates ?config ?stats ~candidates program input =
  run ?config ?stats ~all:true
    ~next:(fun offset -> Array.find_opt (fun c -> c >= offset) candidates)
    program input 0

let match_at ?(config = default_config) ?(stats = fresh_stats ()) program
    input start =
  check_program program;
  attempt ~config ~stats program input start
