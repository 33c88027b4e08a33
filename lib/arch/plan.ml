(* Pre-decoded execution plans: the core simulator's one executor.

   The hardware makes decode free (triple-prefetch instruction memory,
   paper §6/Fig. 3), so the host model decodes once too. A plan is the
   one-time lowering of a verified instruction array into a host-friendly
   form:

   - one variant per instruction with the dispatch decision (EoR / base /
     open-quantifier / open-alternation / standalone close) taken at
     build time, fused base+close micro-ops pre-split into a close code;
   - absolute jump targets (the OPEN-relative fwd/bwd fields resolved
     against the instruction's own address);
   - 256-bit bitsets for Or/Range character references, with NOT folded
     in, so a class test is one load + mask instead of a linear scan;
   - a leading-filter table (the first instruction's bitset, or the
     literal with its first byte) driving the memchr-style skip loop in
     [Core]'s dense scan.

   Execution reuses a [scratch]: the speculation stack lives in
   growable int arrays (pc / cursor / context / arena mark), and the
   controller contexts themselves in a bump-allocated arena of parallel
   arrays, all allocated at first use — frames are immutable once
   written and share parents exactly like a persistent list, so
   snapshots stay O(1) without allocating in the hot loop. Popping a snapshot rewinds the
   arena to its mark, so the arena grows with the live depth, not with
   an attempt's total work.

   One plan op corresponds to one source instruction, and counters are
   incremented at the hardware's execution points (instruction fetch,
   push, rollback), so cycle accounting, traces and the structural
   malformation errors are those of the instruction-at-a-time
   interpreter kept as the test oracle (test/support/core_oracle.ml);
   the @plancheck battery holds the two equal. *)

module I = Alveare_isa.Instruction

(* Close codes: the fused-close field of a base op and the payload of a
   standalone close, as small ints so dispatch is a jump table. *)
let cl_none = -1
let cl_close = 0
let cl_alt_close = 1
let cl_quant_greedy = 2
let cl_quant_lazy = 3

let close_code = function
  | I.Close -> cl_close
  | I.Alt_close -> cl_alt_close
  | I.Quant_greedy -> cl_quant_greedy
  | I.Quant_lazy -> cl_quant_lazy

type op =
  | Eor
  | Lit of { chars : string; close : int }
      (* AND: [chars] against consecutive input bytes (NOT is ignored by
         the datapath); [close] = cl_* fused code *)
  | Set of { bits : Bytes.t; close : int }
      (* OR/RANGE lowered to a 32-byte bitmap, negation folded in *)
  | Open_quant of { qmin : int; qmax : int; greedy : bool; fwd : int }
  | Open_alt of { bwd : int; fwd : int }  (* bwd = -1 when disabled *)
  | Close_op of int
  | Bad of string
      (* unclassifiable instruction (only reachable through
         [of_program_unchecked]); raises Machine's Malformed *)

(* Leading-filter table for the scan skip loop: the first instruction's
   sub-match test, when it is a base operator. *)
type leading =
  | Lead_none
  | Lead_literal of string
  | Lead_set of Bytes.t

type t = {
  ops : op array;
  leading : leading;
  program : Alveare_isa.Program.t;  (* source, for trace events *)
}

(* --- Bitset lowering ---------------------------------------------------- *)

let set_mem bits c =
  let c = Char.code c in
  Char.code (Bytes.unsafe_get bits (c lsr 3)) land (1 lsl (c land 7)) <> 0

let bitset_add bits c =
  Bytes.unsafe_set bits (c lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits (c lsr 3))
                      lor (1 lsl (c land 7))))

let bitset_complement bits =
  for i = 0 to 31 do
    Bytes.unsafe_set bits i
      (Char.unsafe_chr (lnot (Char.code (Bytes.unsafe_get bits i)) land 0xff))
  done

let bitset_of_or ~neg chars =
  let bits = Bytes.make 32 '\000' in
  String.iter (fun c -> bitset_add bits (Char.code c)) chars;
  if neg then bitset_complement bits;
  bits

let bitset_of_range ~neg chars =
  let bits = Bytes.make 32 '\000' in
  (* floor(len/2) [lo,hi] pairs, as the vector unit reads them; an
     inverted pair (lo > hi) contributes the empty set. *)
  for j = 0 to (String.length chars / 2) - 1 do
    for c = Char.code chars.[2 * j] to Char.code chars.[(2 * j) + 1] do
      bitset_add bits c
    done
  done;
  if neg then bitset_complement bits;
  bits

(* --- Lowering ----------------------------------------------------------- *)

(* Classification order is the controller's dispatch order: EoR, then
   OPEN, then base, then standalone close. *)
let lower_instruction pc (i : I.t) : op =
  if I.is_eor i then Eor
  else if i.I.opn then begin
    match i.I.reference with
    | I.Ref_open o ->
      let fwd = pc + o.I.fwd in
      if o.I.min_enabled || o.I.max_enabled then
        Open_quant
          { qmin = (if o.I.min_enabled then o.I.min_count else 0);
            qmax = (if o.I.max_enabled then o.I.max_count else I.unbounded_max);
            greedy = not o.I.lazy_mode;
            fwd }
      else
        Open_alt { bwd = (if o.I.bwd_enabled then pc + o.I.bwd else -1); fwd }
    | I.Ref_none | I.Ref_chars _ -> Bad "OPEN without open reference"
  end
  else begin
    match i.I.base with
    | Some op ->
      (match i.I.reference with
       | I.Ref_chars chars ->
         let close =
           match i.I.close with None -> cl_none | Some c -> close_code c
         in
         (match op with
          | I.And -> Lit { chars; close }
          | I.Or -> Set { bits = bitset_of_or ~neg:i.I.neg chars; close }
          | I.Range -> Set { bits = bitset_of_range ~neg:i.I.neg chars; close })
       | I.Ref_none | I.Ref_open _ ->
         Bad "base operator without character reference")
    | None ->
      (match i.I.close with
       | Some c -> Close_op (close_code c)
       | None -> Bad "instruction with no active operator")
  end

let leading_of_ops ops =
  if Array.length ops = 0 then Lead_none
  else
    match ops.(0) with
    | Lit { chars; _ } -> Lead_literal chars
    | Set { bits; _ } -> Lead_set bits
    | Eor | Open_quant _ | Open_alt _ | Close_op _ | Bad _ -> Lead_none

let of_program_unchecked (program : Alveare_isa.Program.t) : t =
  let ops = Array.mapi lower_instruction program in
  { ops; leading = leading_of_ops ops; program }

let of_program program =
  Alveare_isa.Program.validate_exn program;
  of_program_unchecked program

let leading t = t.leading
let ops t = t.ops

(* Full leading-literal test at an offset (the skip loop's slow
   confirmation once the first byte matched). *)
let literal_matches input off lit =
  let k = String.length lit in
  off + k <= String.length input
  && begin
    let rec eq j =
      j >= k
      || (Char.equal (String.unsafe_get input (off + j))
            (String.unsafe_get lit j)
          && eq (j + 1))
    in
    eq 0
  end

(* --- Scratch state ------------------------------------------------------ *)

(* Controller-context arena: frames form a parent-linked spaghetti stack
   (index -1 = empty context). A frame is written once at allocation and
   never mutated, so snapshots can reference it by index with the
   sharing of a persistent list. [cn] is the bump pointer, reset per
   attempt and rewound on rollback: a frame's parent is always older,
   and every snapshot still on the stack was pushed before the popped
   one, so no live reference points at or above the popped mark. *)
let k_alt = 0
let k_quant_greedy = 1
let k_quant_lazy = 2

type scratch = {
  (* speculation stack (paper Fig. 3 (D)): parallel snapshot arrays *)
  mutable sp : int;
  mutable st_pc : int array;
  mutable st_cursor : int array;
  mutable st_ctx : int array;
  mutable st_cn : int array;  (* arena bump pointer at push *)
  (* context arena *)
  mutable cn : int;
  mutable cx_kind : int array;
  mutable cx_parent : int array;
  mutable cx_fwd : int array;
  mutable cx_body : int array;
  mutable cx_count : int array;
  mutable cx_iter : int array;
  mutable cx_qmin : int array;
  mutable cx_qmax : int array;
}

(* The arrays start empty and take [initial_capacity] entries at the
   first push or frame, doubling after that: a scan whose attempts all
   run on the overlay, or that attempts nothing, allocates no more than
   the record. *)
let initial_capacity = 64

let create_scratch () =
  { sp = 0; st_pc = [||]; st_cursor = [||]; st_ctx = [||]; st_cn = [||];
    cn = 0; cx_kind = [||]; cx_parent = [||]; cx_fwd = [||]; cx_body = [||];
    cx_count = [||]; cx_iter = [||]; cx_qmin = [||]; cx_qmax = [||] }

let grow a =
  let n = Array.length a in
  let b = Array.make (max initial_capacity (2 * n)) 0 in
  Array.blit a 0 b 0 n;
  b

let ensure_stack s =
  if s.sp >= Array.length s.st_pc then begin
    s.st_pc <- grow s.st_pc;
    s.st_cursor <- grow s.st_cursor;
    s.st_ctx <- grow s.st_ctx;
    s.st_cn <- grow s.st_cn
  end

let ensure_arena s =
  if s.cn >= Array.length s.cx_kind then begin
    s.cx_kind <- grow s.cx_kind;
    s.cx_parent <- grow s.cx_parent;
    s.cx_fwd <- grow s.cx_fwd;
    s.cx_body <- grow s.cx_body;
    s.cx_count <- grow s.cx_count;
    s.cx_iter <- grow s.cx_iter;
    s.cx_qmin <- grow s.cx_qmin;
    s.cx_qmax <- grow s.cx_qmax
  end

let new_quant_frame s ~parent ~body ~fwd ~qmin ~qmax ~greedy ~count ~iter =
  ensure_arena s;
  let f = s.cn in
  s.cx_kind.(f) <- (if greedy then k_quant_greedy else k_quant_lazy);
  s.cx_parent.(f) <- parent;
  s.cx_fwd.(f) <- fwd;
  s.cx_body.(f) <- body;
  s.cx_count.(f) <- count;
  s.cx_iter.(f) <- iter;
  s.cx_qmin.(f) <- qmin;
  s.cx_qmax.(f) <- qmax;
  s.cn <- f + 1;
  f

let new_alt_frame s ~parent ~fwd =
  ensure_arena s;
  let f = s.cn in
  s.cx_kind.(f) <- k_alt;
  s.cx_parent.(f) <- parent;
  s.cx_fwd.(f) <- fwd;
  s.cn <- f + 1;
  f

(* --- Executor ----------------------------------------------------------- *)

(* Trace events are recorded after their cycle is charged: [cycle] is
   [stats.cycles] then, and [stack_depth] the live depth. The helpers
   live outside [run] so that an untraced attempt allocates nothing for
   them. *)
let record trace (stats : Machine.stats) s pc cursor kind =
  Option.iter
    (fun tr ->
       Trace.record tr
         { Trace.cycle = stats.Machine.cycles; pc; cursor;
           stack_depth = s.sp; kind })
    trace

(* Op and NOT come from the source instruction: lowering folded NOT
   into the bitset. *)
let record_base trace stats s t pc cursor ~hit ~consumed =
  let i = t.program.(pc) in
  record trace stats s pc cursor
    (Trace.Exec_base
       { op = Option.get i.I.base; neg = i.I.neg; matched = hit;
         consumed = (if hit then consumed else 0) })

(* One full matching attempt anchored at [start]: the controller FSM
   (paper Fig. 3 (D)). With [trace], every event of the attempt, each
   behind the one [tracing] test. *)
let run ?(config = Machine.default_config) ?trace ~(stats : Machine.stats)
    (t : t) (s : scratch) (input : string) (start : int) : int option =
  stats.Machine.attempts <- stats.Machine.attempts + 1;
  s.sp <- 0;
  s.cn <- 0;
  let ops = t.ops in
  let n = String.length input in
  let tracing = Option.is_some trace in
  if tracing then record trace stats s 0 start Trace.Attempt_start;
  let malformed pc reason =
    raise (Machine.Exec_error (Machine.Malformed { pc; reason }))
  in
  let push pc cursor ctx =
    (match config.Machine.stack_capacity with
     | Some cap when s.sp >= cap ->
       raise (Machine.Exec_error (Machine.Stack_overflow cap))
     | Some _ | None -> ());
    ensure_stack s;
    let sp = s.sp in
    s.st_pc.(sp) <- pc;
    s.st_cursor.(sp) <- cursor;
    s.st_ctx.(sp) <- ctx;
    s.st_cn.(sp) <- s.cn;
    s.sp <- sp + 1;
    stats.Machine.stack_pushes <- stats.Machine.stack_pushes + 1;
    if s.sp > stats.Machine.max_stack_depth then
      stats.Machine.max_stack_depth <- s.sp
  in
  (* All calls below are tail calls; pc/cursor/ctx stay unboxed ints. *)
  let rec exec pc cursor ctx : int =
    stats.Machine.instructions <- stats.Machine.instructions + 1;
    stats.Machine.cycles <- stats.Machine.cycles + 1;
    match ops.(pc) with
    | Eor ->
      if tracing then record trace stats s pc cursor Trace.Exec_eor;
      cursor
    | Lit { chars; close } ->
      let k = String.length chars in
      let hit = cursor + k <= n && literal_matches input cursor chars in
      if tracing then record_base trace stats s t pc cursor ~hit ~consumed:k;
      if hit then matched pc (cursor + k) ctx close else rollback ()
    | Set { bits; close } ->
      let hit = cursor < n && set_mem bits (String.unsafe_get input cursor) in
      if tracing then record_base trace stats s t pc cursor ~hit ~consumed:1;
      if hit then matched pc (cursor + 1) ctx close else rollback ()
    | Open_quant { qmin; qmax; greedy; fwd } ->
      if tracing then record trace stats s pc cursor Trace.Exec_open;
      if qmin > 0 then
        exec (pc + 1) cursor
          (new_quant_frame s ~parent:ctx ~body:(pc + 1) ~fwd ~qmin ~qmax
             ~greedy ~count:0 ~iter:cursor)
      else if qmax = 0 then exec fwd cursor ctx
      else if greedy then begin
        push fwd cursor ctx;
        exec (pc + 1) cursor
          (new_quant_frame s ~parent:ctx ~body:(pc + 1) ~fwd ~qmin ~qmax
             ~greedy ~count:0 ~iter:cursor)
      end
      else begin
        push (pc + 1) cursor
          (new_quant_frame s ~parent:ctx ~body:(pc + 1) ~fwd ~qmin ~qmax
             ~greedy ~count:0 ~iter:cursor);
        exec fwd cursor ctx
      end
    | Open_alt { bwd; fwd } ->
      if tracing then record trace stats s pc cursor Trace.Exec_open;
      if bwd >= 0 then push bwd cursor ctx;
      exec (pc + 1) cursor (new_alt_frame s ~parent:ctx ~fwd)
    | Close_op c ->
      if tracing then
        record trace stats s pc cursor
          (Trace.Exec_close (Option.get t.program.(pc).I.close));
      do_close pc cursor ctx c
    | Bad reason -> malformed pc reason
  (* A base sub-match succeeded; apply the fused close if present. *)
  and matched pc cursor ctx close_c =
    if close_c = cl_none then exec (pc + 1) cursor ctx
    else do_close pc cursor ctx close_c
  and do_close pc cursor ctx c =
    if ctx < 0 then
      malformed pc "close operator does not match the open context"
    else begin
      let kind = s.cx_kind.(ctx) in
      if c = cl_close then begin
        if kind = k_alt then exec (pc + 1) cursor s.cx_parent.(ctx)
        else malformed pc "close operator does not match the open context"
      end
      else if c = cl_alt_close then begin
        if kind = k_alt then exec s.cx_fwd.(ctx) cursor s.cx_parent.(ctx)
        else malformed pc "close operator does not match the open context"
      end
      else begin
        (* quantifier close *)
        if kind = k_alt then
          malformed pc "close operator does not match the open context"
        else begin
          let count = s.cx_count.(ctx) + 1 in
          let body = s.cx_body.(ctx)
          and fwd = s.cx_fwd.(ctx)
          and qmin = s.cx_qmin.(ctx)
          and qmax = s.cx_qmax.(ctx)
          and parent = s.cx_parent.(ctx)
          and greedy = kind = k_quant_greedy in
          if count < qmin then
            exec body cursor
              (new_quant_frame s ~parent ~body ~fwd ~qmin ~qmax ~greedy ~count
                 ~iter:cursor)
          else if qmax <> I.unbounded_max && count >= qmax then
            exec fwd cursor parent
          else if cursor = s.cx_iter.(ctx) then
            (* Zero-width iteration past the minimum ends the loop (PCRE). *)
            exec fwd cursor parent
          else if greedy then begin
            push fwd cursor parent;
            exec body cursor
              (new_quant_frame s ~parent ~body ~fwd ~qmin ~qmax ~greedy ~count
                 ~iter:cursor)
          end
          else begin
            push body cursor
              (new_quant_frame s ~parent ~body ~fwd ~qmin ~qmax ~greedy ~count
                 ~iter:cursor);
            exec fwd cursor parent
          end
        end
      end
    end
  and rollback () =
    if s.sp = 0 then -1
    else begin
      let sp = s.sp - 1 in
      s.sp <- sp;
      s.cn <- s.st_cn.(sp);
      stats.Machine.rollbacks <- stats.Machine.rollbacks + 1;
      stats.Machine.cycles <- stats.Machine.cycles + 1;
      let pc = s.st_pc.(sp) and cursor = s.st_cursor.(sp) in
      if tracing then record trace stats s pc cursor Trace.Rollback;
      exec pc cursor s.st_ctx.(sp)
    end
  in
  let stop = exec 0 start (-1) in
  if stop < 0 then None else Some stop
