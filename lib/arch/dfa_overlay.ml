(* Lazy-DFA overlay for the plan executor.

   Dense non-literal patterns pay full speculative-execution cost per
   scanned offset: the plan path re-runs pushes, pops and controller
   frames for every byte even when the program fragment being executed
   is provably backtracking-free. This module determinizes those
   fragments *on the fly* into a transition table — the classic
   one-table-lookup-per-byte discipline — while reproducing the
   speculative machine's observable behaviour bit-identically: same
   match spans AND the same values for every stats counter the plan
   path would have produced (instructions, cycles, rollbacks,
   stack_pushes, max_stack_depth, attempts; the scan-level counters
   stay with the caller's scan loop).

   How exactness is achieved
   -------------------------
   A transition is cut immediately AFTER each byte consume. At that
   cut, every snapshot on the speculation stack has cursor = the
   position just consumed, so the whole stack is "stale": if control
   ever rolls back into it, those subtrees re-read only the byte that
   was just consumed. The overlay therefore resolves each snapshot *at
   staling time*, under the known byte, into a closed record: either
   the subtree fails outright (an exact bundle of instruction / cycle
   / rollback / push deltas) or it reaches EoR without consuming (an
   exact match checkpoint ending at the staling position). If a stale
   subtree would consume the byte — i.e. real backtracking — the
   transition is marked unresolvable and execution BAILS to [Plan.run]
   for that attempt, with no counters touched. The safe-fragment mask
   from the ambiguity analysis gates which ops may be executed
   symbolically at all; the dynamic resolvability check is the
   backstop that keeps the overlay exact even on fragment-safe but
   not one-pass programs (e.g. [(ab|ac)]).

   Because stale resolution empties the pending set at every cut, a
   DFA state is tiny: an execution phase (about to run op [pc]; about
   to run a fused close deferred from the previous byte; or mid-way
   through a multi-byte literal) plus a hash-consed controller-context
   chain. Quantifier counts are clamped at [qmin] for unbounded
   quantifiers (the executor only ever compares [count < qmin] there),
   so state spaces stay small. States and transitions live in a
   bounded arena: on overflow the whole cache is flushed and the
   in-flight attempt bails — never wrong, only slower.

   A row is indexed by byte class, not by byte: the ops read the input
   only through a literal byte's equality test and a set's membership
   test, so the family partitions the 256 bytes once into the classes
   no op tells apart ([byte_classes]), and a state's row holds one cell
   per class plus one for end of input, each built from one byte of its
   class.

   The runtime loop then executes one cached transition per byte,
   carrying a handful of integer registers: forward counter deltas,
   a deferred-unwind accumulator (the cost of popping every stale
   snapshot, applied only if the attempt ultimately fails), and a
   match checkpoint (the newest stale snapshot that accepts, which is
   exactly the snapshot the real machine would pop first and match
   through). max_stack_depth is reconstructed from per-transition
   relative peaks offset by the absolute stale depth.

   Concurrency: transition tables are per-domain (one instance per
   [family] per domain, via a single Domain.DLS key, at most 128 per
   domain with the least recently used evicted); within a domain,
   sys-thread callers (the server) take a per-instance try-lock and
   fall back to [Plan.run] on contention — identical results either
   way. Cache counters are plain fields of the instance, so the hot
   path never touches an atomic; they hold the open session's counts
   only, and [release] adds them to the family's and the process's
   atomic totals and zeroes them, once per session. *)

module I = Alveare_isa.Instruction

(* --- Cache statistics --------------------------------------------------- *)

type cache_stats = {
  states_built : int;
  transitions_built : int;
  hits : int;         (* transition-table lookups served from cache *)
  misses : int;       (* lookups that had to build a transition *)
  flushes : int;      (* whole-cache resets on arena overflow *)
  bails : int;        (* attempts handed back to Plan.run *)
  dfa_attempts : int; (* attempts completed entirely on the table *)
  refused : int;      (* sessions refused: instance held by another caller *)
}

(* Totals of every ended session, one atomic per counter: one set per
   family and one for the process. *)
type totals = {
  tot_states : int Atomic.t;
  tot_trans : int Atomic.t;
  tot_hits : int Atomic.t;
  tot_misses : int Atomic.t;
  tot_flushes : int Atomic.t;
  tot_bails : int Atomic.t;
  tot_attempts : int Atomic.t;
  tot_refused : int Atomic.t;
}

let new_totals () =
  let z () = Atomic.make 0 in
  { tot_states = z (); tot_trans = z (); tot_hits = z (); tot_misses = z ();
    tot_flushes = z (); tot_bails = z (); tot_attempts = z ();
    tot_refused = z () }

let read_totals s =
  { states_built = Atomic.get s.tot_states;
    transitions_built = Atomic.get s.tot_trans;
    hits = Atomic.get s.tot_hits; misses = Atomic.get s.tot_misses;
    flushes = Atomic.get s.tot_flushes; bails = Atomic.get s.tot_bails;
    dfa_attempts = Atomic.get s.tot_attempts;
    refused = Atomic.get s.tot_refused }

let process_totals = new_totals ()

let add a n = if n <> 0 then ignore (Atomic.fetch_and_add a n)

(* --- Growable vectors (OCaml 5.1: no Dynarray) -------------------------- *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_make dummy = { data = Array.make 64 dummy; len = 0 }

let vec_push v x =
  if v.len >= Array.length v.data then begin
    let d = Array.make (2 * Array.length v.data) v.data.(0) in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_get v i = v.data.(i)
let vec_clear v = v.len <- 0

(* --- DFA states --------------------------------------------------------- *)

(* Interned controller frames. No iteration cursor: at a transition
   cut every live frame was created at or before the position just
   consumed, so the executor's zero-width test ([cursor = iter]) is
   false for all of them. [fr_count] is clamped at [qmin] when
   [fr_qmax] is unbounded (see header). *)
type frame = {
  fr_kind : int;  (* 0 = alt, 1 = quant greedy, 2 = quant lazy *)
  fr_parent : int;
  fr_fwd : int;
  fr_body : int;
  fr_count : int;
  fr_qmin : int;
  fr_qmax : int;
}

let fk_alt = 0
let fk_greedy = 1
let fk_lazy = 2

let dummy_frame =
  { fr_kind = 0; fr_parent = -1; fr_fwd = 0; fr_body = 0; fr_count = 0;
    fr_qmin = 0; fr_qmax = 0 }

(* Execution phases at a cut (i.e. about to read the next byte):
   - [ph_run]: dispatch op [s_pc] (charging one instruction);
   - [ph_close]: run op [s_pc]'s fused close code [s_arg] — the close
     half of a base+close micro-op whose base consumed the previous
     byte; no extra instruction is charged, exactly as in [Plan.run];
   - [ph_mid]: [s_arg] bytes of multi-byte literal [s_pc] already
     matched; test byte [s_arg] without charging (the literal was
     charged as one instruction when its first byte matched). *)
let ph_run = 0
let ph_close = 1
let ph_mid = 2

type state = { ph : int; s_pc : int; s_arg : int; s_ctx : int }

let dummy_state = { ph = 0; s_pc = 0; s_arg = 0; s_ctx = -1 }
let state0 = { ph = ph_run; s_pc = 0; s_arg = 0; s_ctx = -1 }

(* --- Transitions -------------------------------------------------------- *)

(* Resolution record for one stale snapshot, bottom-to-top stack
   order. Includes the activation pop (1 rollback, 1 cycle) and the
   full cost of its failing subtree; [sk_peak] is the subtree's push
   peak relative to its own stack base (0 = it never pushed). *)
(* Cycle counts are not stored anywhere in the table: within an
   attempt the executor charges one cycle per instruction and one per
   rollback pop, so cycles = instructions + rollbacks, reconstructed
   when the attempt's deltas are applied. *)
type stale = {
  sk_accept : bool;  (* subtree reaches EoR without consuming *)
  sk_instr : int;
  sk_rolls : int;
  sk_pushes : int;
  sk_peak : int;
}

(* [t_next] encodes the transition kind without a boxed variant:
   a successor state id when the byte was consumed, or a terminal. *)
let k_match = -1  (* reached EoR before consuming *)
let k_fail = -2   (* frontier exhausted before consuming *)
let k_bail = -3   (* not executable on the table (see header) *)

(* The staled batch is folded into scalar fields at build time (the
   attempt loop replays a batch on EVERY traversal of the transition,
   so it must not loop over an array): [ck_*] is the newest accepting
   snapshot — the checkpoint the real machine would pop first and
   match through — and [a_*] sums the failing snapshots ABOVE it (all
   of them when no snapshot accepts), i.e. exactly the deferred-unwind
   contribution after the checkpoint reset the accumulators. All-int
   record: one flat load region per byte, no pointer chasing. *)
type trans = {
  t_next : int;     (* >= 0: successor state id; else k_* above *)
  d_instr : int;
  d_rolls : int;
  d_pushes : int;
  rel_peak : int;   (* frontier push peak relative to stale depth; 0 = none *)
  n_staled : int;   (* snapshots staled by this step *)
  ck_idx : int;     (* batch index of the accepting snapshot; -1 = none *)
  ck_instr : int;
  ck_rolls : int;
  ck_pushes : int;
  ck_peak : int;    (* checkpoint subtree push peak; 0 = none *)
  a_instr : int;
  a_rolls : int;
  a_pushes : int;
  a_peakrel : int;  (* max (batch idx + subtree peak) of the sums; -1 = none *)
}

let bail_trans =
  { t_next = k_bail; d_instr = 0; d_rolls = 0; d_pushes = 0; rel_peak = 0;
    n_staled = 0; ck_idx = -1; ck_instr = 0; ck_rolls = 0; ck_pushes = 0;
    ck_peak = 0; a_instr = 0; a_rolls = 0; a_pushes = 0; a_peakrel = -1 }

(* Rows store transition records directly (no id indirection: the
   attempt loop is one array load away from the deltas); this sentinel
   marks an unbuilt cell and is recognised by physical equality, so it
   must stay a distinct allocation from [bail_trans]. *)
let unbuilt_trans = { bail_trans with t_next = min_int }

let terminal_trans next ~instr ~rolls ~pushes ~peak =
  { bail_trans with
    t_next = next; d_instr = instr; d_rolls = rolls; d_pushes = pushes;
    rel_peak = peak }

exception Bail

(* Rarely-touched per-attempt registers (deferred unwind, match
   checkpoint, and the final deltas a terminal transition hands back),
   preallocated so the attempt loop never allocates. Written only while
   the instance lock is held. *)
type regs = {
  mutable r_ai : int;   (* acc: deferred unwind instr *)
  mutable r_ar : int;
  mutable r_ap : int;
  mutable r_apk : int;  (* acc: absolute push peak; 0 = none *)
  mutable r_hck : bool; (* checkpoint present *)
  mutable r_ce : int;   (* checkpoint match end *)
  mutable r_cki : int;
  mutable r_ckr : int;
  mutable r_ckp : int;
  mutable r_ckpk : int;
  mutable r_fi : int;   (* final deltas of a finished attempt *)
  mutable r_fr : int;
  mutable r_fp : int;
  mutable r_fpk : int;
}

(* --- Families and instances --------------------------------------------- *)

type t = {
  fam : family;
  ops : Plan.op array;
  covered : bool array;
  max_states : int;
  max_transitions : int;
  (* interning arenas *)
  frames : frame vec;
  frame_tbl : (frame, int) Hashtbl.t;
  states : state vec;
  state_tbl : (state, int) Hashtbl.t;
  cls : string;           (* byte -> class (a char code): the row cell it reads *)
  reps : string;          (* class -> the byte its cells are built from *)
  rows : trans array vec;
      (* per state: one cell per class, then one for end of input;
         [unbuilt_trans] = unbuilt *)
  mutable n_trans : int;  (* cells built since the last flush (arena budget) *)
  regs : regs;
  mu : Mutex.t;           (* same-domain sys-thread exclusion (try-lock) *)
  mutable last_use : int; (* the domain's [get] clock at the last [get] *)
  (* the open session's cache counters, written under [mu] *)
  mutable c_states : int;
  mutable c_trans : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_flushes : int;
  mutable c_bails : int;
  mutable c_attempts : int;
}

and family = {
  fid : int;
  fplan : Plan.t;
  fops : Plan.op array;
  fcovered : bool array;
  fcls : string;
  freps : string;
  fmax_states : int;
  totals : totals;
}

let next_fid = Atomic.make 0

let coverage ops fragments =
  let n = Array.length ops in
  let covered = Array.make n false in
  List.iter
    (fun (lo, hi) ->
       for pc = max 0 lo to min n hi - 1 do covered.(pc) <- true done)
    fragments;
  covered

(* The bytes a transition build can tell apart: the ops read the input
   only through a literal byte's equality test and a set's membership
   test, so bytes of one class build the same cell. *)
let byte_classes plan =
  let lits = Buffer.create 16 and sets = ref [] in
  Array.iter
    (function
      | Plan.Lit { chars; _ } -> Buffer.add_string lits chars
      | Plan.Set { bits; _ } -> sets := bits :: !sets
      | _ -> ())
    (Plan.ops plan);
  Alveare_frontend.Charset.byte_classes ~singles:(Buffer.contents lits)
    (List.map Plan.set_mem (List.sort_uniq Bytes.compare !sets))

let default_max_states = 512

let family ?(max_states = default_max_states) ~fragments plan =
  let ops = Plan.ops plan in
  let covered = coverage ops fragments in
  (* Non-trivial only if the fragments cover the entry op — otherwise
     every transition would bail immediately. *)
  if Array.length ops = 0 || not covered.(0) then None
  else begin
    let cls, reps = byte_classes plan in
    Some
      { fid = Atomic.fetch_and_add next_fid 1;
        fplan = plan; fops = ops; fcovered = covered; fcls = cls;
        freps = reps; fmax_states = max 2 max_states; totals = new_totals () }
  end

let plan_of fam = fam.fplan

let stats_of (t : t) =
  { states_built = t.c_states; transitions_built = t.c_trans;
    hits = t.c_hits; misses = t.c_misses; flushes = t.c_flushes;
    bails = t.c_bails; dfa_attempts = t.c_attempts; refused = 0 }

let family_stats fam = read_totals fam.totals
let global_stats () = read_totals process_totals

let add_counts s t =
  add s.tot_states t.c_states;
  add s.tot_trans t.c_trans;
  add s.tot_hits t.c_hits;
  add s.tot_misses t.c_misses;
  add s.tot_flushes t.c_flushes;
  add s.tot_bails t.c_bails;
  add s.tot_attempts t.c_attempts

(* End of a session: the counts move to the family's and the process's
   totals, so the instance starts the next session at zero. *)
let fold_counts t =
  add_counts t.fam.totals t;
  add_counts process_totals t;
  t.c_states <- 0; t.c_trans <- 0; t.c_hits <- 0; t.c_misses <- 0;
  t.c_flushes <- 0; t.c_bails <- 0; t.c_attempts <- 0

(* --- Instance lifecycle ------------------------------------------------- *)

let rec intern_state t (st : state) =
  match Hashtbl.find_opt t.state_tbl st with
  | Some id -> id
  | None ->
    if t.states.len >= t.max_states then begin
      flush t;
      raise Bail
    end;
    let id = t.states.len in
    vec_push t.states st;
    vec_push t.rows (Array.make (String.length t.reps + 1) unbuilt_trans);
    Hashtbl.add t.state_tbl st id;
    t.c_states <- t.c_states + 1;
    id

and flush t =
  vec_clear t.frames;
  Hashtbl.reset t.frame_tbl;
  vec_clear t.states;
  Hashtbl.reset t.state_tbl;
  vec_clear t.rows;
  t.n_trans <- 0;
  t.c_flushes <- t.c_flushes + 1;
  ignore (intern_state t state0)

let create_instance fam =
  let t =
    { fam; ops = fam.fops; covered = fam.fcovered;
      max_states = fam.fmax_states;
      max_transitions = 32 * fam.fmax_states;
      frames = vec_make dummy_frame;
      frame_tbl = Hashtbl.create 64;
      states = vec_make dummy_state;
      state_tbl = Hashtbl.create 64;
      cls = fam.fcls; reps = fam.freps;
      rows = vec_make ([||] : trans array);
      n_trans = 0;
      regs =
        { r_ai = 0; r_ar = 0; r_ap = 0; r_apk = 0;
          r_hck = false; r_ce = 0; r_cki = 0; r_ckr = 0;
          r_ckp = 0; r_ckpk = 0; r_fi = 0; r_fr = 0; r_fp = 0; r_fpk = 0 };
      mu = Mutex.create (); last_use = 0;
      c_states = 0; c_trans = 0; c_hits = 0; c_misses = 0;
      c_flushes = 0; c_bails = 0; c_attempts = 0 }
  in
  ignore (intern_state t state0);
  fold_counts t;
  t

(* One DLS slot for all families: fid -> instance for this domain, and
   the clock that stamps each [get]. *)
type instances = { tbl : (int, t) Hashtbl.t; mutable clock : int }

let dls_instances : instances Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 8; clock = 0 })

let max_cached_instances = 128

(* Past the cap, drop the least recently used instance: a standing
   ruleset's warm tables outlive a stream of one-off patterns. *)
let evict_lru tbl =
  let fid = ref (-1) and stamp = ref max_int in
  Hashtbl.iter
    (fun f t -> if t.last_use < !stamp then begin fid := f; stamp := t.last_use end)
    tbl;
  Hashtbl.remove tbl !fid

let get fam =
  let d = Domain.DLS.get dls_instances in
  d.clock <- d.clock + 1;
  let t =
    match Hashtbl.find_opt d.tbl fam.fid with
    | Some t -> t
    | None ->
      if Hashtbl.length d.tbl >= max_cached_instances then evict_lru d.tbl;
      let t = create_instance fam in
      Hashtbl.add d.tbl fam.fid t;
      t
  in
  t.last_use <- d.clock;
  t

(* --- Transition building ------------------------------------------------ *)

(* Build-time controller frames: like [frame] but with [bzw] — true for
   frames created during this transition (their iteration cursor equals
   the current position, so the zero-width test is live), false for
   frames imported from the interned source-state chain. *)
type bframe = {
  bk : int;
  bparent : int;
  bfwd : int;
  bbody : int;
  bcount : int;
  bqmin : int;
  bqmax : int;
  bzw : bool;
}

let dummy_bframe =
  { bk = 0; bparent = -1; bfwd = 0; bbody = 0; bcount = 0; bqmin = 0;
    bqmax = 0; bzw = false }

let intern_frame t (f : frame) =
  match Hashtbl.find_opt t.frame_tbl f with
  | Some id -> id
  | None ->
    let id = t.frames.len in
    vec_push t.frames f;
    Hashtbl.add t.frame_tbl f id;
    id

(* Symbolic-execution outcome at one input position. *)
type sym_end =
  | E_consume of { next_ph : int; next_pc : int; next_arg : int; ctx : int }
  | E_match
  | E_fail

let build_step_budget = 100_000

(* Build the transition out of [st] on input symbol [b] (0..255 a byte,
   256 = end of input). Mirrors [Plan.run]'s executor at a fixed input
   position, counting the same events at the same points. Raises [Bail]
   when the behaviour cannot be captured exactly (op outside the safe
   fragments, poisoned/malformed op, a stale snapshot that would
   consume, or the step budget exhausted); raises [Bail] after a flush
   when interning the successor overflows the state arena. *)
let build t (st : state) b : trans =
  let ops = t.ops in
  let nops = Array.length ops in
  let bframes = vec_make dummy_bframe in
  (* build stack: snapshot (pc, ctx) pairs *)
  let stk_pc = vec_make 0 in
  let stk_ctx = vec_make 0 in
  (* counters for the phase currently executing (main, then one fresh
     set per stale resolution) *)
  let instr = ref 0 and rolls = ref 0 and pushes = ref 0 in
  let peak = ref 0 in
  let base = ref 0 in          (* stack base of the current phase *)
  let consume_ok = ref true in (* false during stale resolution *)
  let steps = ref 0 in
  let new_bframe bk bparent bfwd bbody bcount bqmin bqmax =
    vec_push bframes
      { bk; bparent; bfwd; bbody; bcount; bqmin; bqmax; bzw = true };
    bframes.len - 1
  in
  let push pc ctx =
    vec_push stk_pc pc;
    vec_push stk_ctx ctx;
    incr pushes;
    let rel = stk_pc.len - !base in
    if rel > !peak then peak := rel
  in
  let check_pc pc =
    if pc < 0 || pc >= nops || not (Array.unsafe_get t.covered pc) then
      raise Bail;
    incr steps;
    if !steps > build_step_budget then raise Bail
  in
  let consume next_ph next_pc next_arg ctx =
    if not !consume_ok then raise Bail;
    E_consume { next_ph; next_pc; next_arg; ctx }
  in
  (* After a base op matches symbol [b]: consume it, deferring any
     fused close to the successor state's ph_close phase. *)
  let consume_base pc ctx close =
    if close = Plan.cl_none then consume ph_run (pc + 1) 0 ctx
    else consume ph_close pc close ctx
  in
  let rec exec pc ctx : sym_end =
    check_pc pc;
    incr instr;
    match Array.unsafe_get ops pc with
    | Plan.Eor -> E_match
    | Plan.Lit { chars; close } ->
      let k = String.length chars in
      if k = 0 then matched pc ctx close  (* epsilon: no consume *)
      else if b < 256 && Char.code (String.unsafe_get chars 0) = b then begin
        if k = 1 then consume_base pc ctx close
        else consume ph_mid pc 1 ctx
      end
      else rollback ()
    | Plan.Set { bits; close } ->
      if b < 256 && Plan.set_mem bits (Char.unsafe_chr b) then
        consume_base pc ctx close
      else rollback ()
    | Plan.Open_quant { qmin; qmax; greedy; fwd } ->
      let bk = if greedy then fk_greedy else fk_lazy in
      if qmin > 0 then
        exec (pc + 1) (new_bframe bk ctx fwd (pc + 1) 0 qmin qmax)
      else if qmax = 0 then exec fwd ctx
      else if greedy then begin
        push fwd ctx;
        exec (pc + 1) (new_bframe bk ctx fwd (pc + 1) 0 qmin qmax)
      end
      else begin
        push (pc + 1) (new_bframe bk ctx fwd (pc + 1) 0 qmin qmax);
        exec fwd ctx
      end
    | Plan.Open_alt { bwd; fwd } ->
      if bwd >= 0 then push bwd ctx;
      vec_push bframes
        { bk = fk_alt; bparent = ctx; bfwd = fwd; bbody = 0; bcount = 0;
          bqmin = 0; bqmax = 0; bzw = true };
      exec (pc + 1) (bframes.len - 1)
    | Plan.Close_op c -> do_close pc ctx c
    | Plan.Bad _ -> raise Bail
  and matched pc ctx close =
    if close = Plan.cl_none then exec (pc + 1) ctx
    else do_close pc ctx close
  and do_close pc ctx c =
    if ctx < 0 then raise Bail  (* would raise Malformed: not exact here *)
    else begin
      let f = vec_get bframes ctx in
      if c = Plan.cl_close then begin
        if f.bk = fk_alt then exec (pc + 1) f.bparent else raise Bail
      end
      else if c = Plan.cl_alt_close then begin
        if f.bk = fk_alt then exec f.bfwd f.bparent else raise Bail
      end
      else if f.bk = fk_alt then raise Bail
      else begin
        let count = f.bcount + 1 in
        let greedy = f.bk = fk_greedy in
        let bk = f.bk in
        if count < f.bqmin then
          exec f.bbody (new_bframe bk f.bparent f.bfwd f.bbody count
                          f.bqmin f.bqmax)
        else if f.bqmax <> I.unbounded_max && count >= f.bqmax then
          exec f.bfwd f.bparent
        else if f.bzw then
          (* zero-width iteration past the minimum ends the loop *)
          exec f.bfwd f.bparent
        else if greedy then begin
          push f.bfwd f.bparent;
          exec f.bbody (new_bframe bk f.bparent f.bfwd f.bbody count
                          f.bqmin f.bqmax)
        end
        else begin
          push f.bbody (new_bframe bk f.bparent f.bfwd f.bbody count
                          f.bqmin f.bqmax);
          exec f.bfwd f.bparent
        end
      end
    end
  and mid pc j ctx =
    (* continuation of a multi-byte literal: no instruction charge *)
    check_pc pc;
    match ops.(pc) with
    | Plan.Lit { chars; close } ->
      let k = String.length chars in
      if j < k && b < 256 && Char.code (String.unsafe_get chars j) = b then begin
        if j + 1 = k then consume_base pc ctx close
        else consume ph_mid pc (j + 1) ctx
      end
      else rollback ()
    | _ -> raise Bail
  and rollback () =
    if stk_pc.len <= !base then E_fail
    else begin
      let sp = stk_pc.len - 1 in
      stk_pc.len <- sp;
      stk_ctx.len <- sp;
      incr rolls;
      exec (vec_get stk_pc sp) (vec_get stk_ctx sp)
    end
  in
  (* Import the interned context chain into build-local frames
     (bzw = false: created at an earlier position). *)
  let rec import id =
    if id < 0 then -1
    else begin
      let f = vec_get t.frames id in
      let p = import f.fr_parent in
      vec_push bframes
        { bk = f.fr_kind; bparent = p; bfwd = f.fr_fwd; bbody = f.fr_body;
          bcount = f.fr_count; bqmin = f.fr_qmin; bqmax = f.fr_qmax;
          bzw = false };
      bframes.len - 1
    end
  in
  (* Intern a build-local chain back, clamping unbounded counts. *)
  let rec intern_chain idx =
    if idx < 0 then -1
    else begin
      let bf = vec_get bframes idx in
      let parent = intern_chain bf.bparent in
      let count =
        if bf.bqmax = I.unbounded_max && bf.bcount > bf.bqmin then bf.bqmin
        else bf.bcount
      in
      intern_frame t
        { fr_kind = bf.bk; fr_parent = parent; fr_fwd = bf.bfwd;
          fr_body = bf.bbody; fr_count = count; fr_qmin = bf.bqmin;
          fr_qmax = bf.bqmax }
    end
  in
  let ctx0 = import st.s_ctx in
  let outcome =
    if st.ph = ph_run then exec st.s_pc ctx0
    else if st.ph = ph_close then do_close st.s_pc ctx0 st.s_arg
    else mid st.s_pc st.s_arg ctx0
  in
  match outcome with
  | E_match ->
    terminal_trans k_match ~instr:!instr ~rolls:!rolls ~pushes:!pushes
      ~peak:!peak
  | E_fail ->
    terminal_trans k_fail ~instr:!instr ~rolls:!rolls ~pushes:!pushes
      ~peak:!peak
  | E_consume { next_ph; next_pc; next_arg; ctx } ->
    let batch_len = stk_pc.len in
    let m_instr = !instr
    and m_rolls = !rolls and m_pushes = !pushes and m_peak = !peak in
    (* Resolve the surviving snapshots, bottom to top, each under the
       consumed symbol. Resolution never consumes ([consume_ok] off)
       and runs on the stack region above the batch. *)
    consume_ok := false;
    base := batch_len;
    let staled =
      Array.init batch_len (fun i ->
          (* the activation pop itself: one rollback (and its cycle) *)
          instr := 0; rolls := 1; pushes := 0; peak := 0;
          stk_pc.len <- batch_len;
          stk_ctx.len <- batch_len;
          let o = exec (vec_get stk_pc i) (vec_get stk_ctx i) in
          match o with
          | E_match ->
            { sk_accept = true; sk_instr = !instr;
              sk_rolls = !rolls; sk_pushes = !pushes; sk_peak = !peak }
          | E_fail ->
            { sk_accept = false; sk_instr = !instr;
              sk_rolls = !rolls; sk_pushes = !pushes; sk_peak = !peak }
          | E_consume _ -> assert false)
    in
    let ctx' = intern_chain ctx in
    let sid' =
      intern_state t { ph = next_ph; s_pc = next_pc; s_arg = next_arg;
                       s_ctx = ctx' }
    in
    (* Fold the batch: checkpoint = newest accepting snapshot; the
       deferred-unwind sums cover only the snapshots above it (they are
       what survives the checkpoint's accumulator reset). *)
    let ck_idx = ref (-1) in
    Array.iteri (fun i r -> if r.sk_accept then ck_idx := i) staled;
    let ai = ref 0 and ar = ref 0 and ap = ref 0 and apk = ref (-1) in
    for i = !ck_idx + 1 to batch_len - 1 do
      let r = staled.(i) in
      ai := !ai + r.sk_instr;
      ar := !ar + r.sk_rolls;
      ap := !ap + r.sk_pushes;
      if r.sk_peak > 0 && i + r.sk_peak > !apk then apk := i + r.sk_peak
    done;
    let ck_instr, ck_rolls, ck_pushes, ck_peak =
      if !ck_idx >= 0 then
        let r = staled.(!ck_idx) in
        (r.sk_instr, r.sk_rolls, r.sk_pushes, r.sk_peak)
      else (0, 0, 0, 0)
    in
    { t_next = sid'; d_instr = m_instr; d_rolls = m_rolls;
      d_pushes = m_pushes; rel_peak = m_peak; n_staled = batch_len;
      ck_idx = !ck_idx; ck_instr; ck_rolls; ck_pushes; ck_peak;
      a_instr = !ai; a_rolls = !ar; a_pushes = !ap; a_peakrel = !apk }

(* --- Table-driven execution --------------------------------------------- *)

(* Cold path of the attempt loop: build and cache the missing cell
   [cell] (a class, or the last cell: end of input) from one byte of its
   class. Raises [Bail] (after caching a bail transition, unless the
   arena was just flushed) when the behaviour can't be captured. *)
let build_missing t sid cell (row : trans array) =
  if t.n_trans >= t.max_transitions then begin
    flush t;
    raise Bail
  end;
  let b = if cell < String.length t.reps then Char.code t.reps.[cell] else 256 in
  let flushes_before = t.c_flushes in
  let tr =
    try build t (vec_get t.states sid) b
    with Bail ->
      (* cache the bail — unless the arena was just flushed, in which
         case [row] no longer belongs to the table *)
      if t.c_flushes = flushes_before then begin
        t.n_trans <- t.n_trans + 1;
        t.c_trans <- t.c_trans + 1;
        Array.unsafe_set row cell bail_trans
      end;
      raise Bail
  in
  t.n_trans <- t.n_trans + 1;
  t.c_trans <- t.c_trans + 1;
  Array.unsafe_set row cell tr;
  tr

(* One matching attempt on the transition table: [step] and [apply]
   below, tail-calling each other once per input byte. Register
   discipline: [fi/fr/fp] accumulate the forward deltas (work on the
   still-live frontier; cycles are derived at the end as instructions +
   rollbacks), [fpk] the absolute push peak, [stale] the count of
   staled (unpopped) snapshots. [t.regs] carries the deferred unwind
   (cost of popping every stale snapshot, paid only on failure) and the
   newest accepting stale snapshot — the match checkpoint the real
   machine would pop first and match through. On success both are
   dropped: the machine returns with the stack still standing. A
   terminal transition leaves the attempt's final deltas in [t.regs]
   for [run_dfa] to charge.

   Allocation-free: both functions are top-level (ten arguments, all
   passed in registers), the hot registers ride the arguments and the
   cold ones live in [t.regs]; only a transition-table miss allocates,
   to build the missing cell. [rows] rides the recursion so the hit
   path never re-reads the vec header; a miss may grow (or flush) the
   arena, so its continuation re-reads [t.rows.data]. *)
let settle_regs rg fi fr fp fpk =
  rg.r_fi <- fi;
  rg.r_fr <- fr;
  rg.r_fp <- fp;
  rg.r_fpk <- fpk

let rec step t input rows pos sid stale fi fr fp fpk =
  let row = Array.unsafe_get rows sid in
  let cell =
    if pos < String.length input then
      Char.code (String.unsafe_get t.cls (Char.code (String.unsafe_get input pos)))
    else Array.length row - 1
  in
  let tr = Array.unsafe_get row cell in
  if tr == unbuilt_trans then begin
    t.c_misses <- t.c_misses + 1;
    let tr = build_missing t sid cell row in
    apply t input t.rows.data pos tr stale fi fr fp fpk
  end
  else begin
    t.c_hits <- t.c_hits + 1;
    apply t input rows pos tr stale fi fr fp fpk
  end

and apply t input rows pos tr stale fi fr fp fpk =
  let rg = t.regs in
  let fi = fi + tr.d_instr
  and fr = fr + tr.d_rolls
  and fp = fp + tr.d_pushes in
  let fpk =
    if tr.rel_peak > 0 && stale + tr.rel_peak > fpk then stale + tr.rel_peak
    else fpk
  in
  let next = tr.t_next in
  if next >= 0 then begin
    (if tr.ck_idx >= 0 then begin
       (* the real machine pops down to this snapshot and matches
          through it; everything below it is never popped, and the
          checkpoint resets the deferred-unwind accumulators to the
          (prefolded) cost of the snapshots above it *)
       rg.r_hck <- true;
       rg.r_ce <- pos;
       rg.r_cki <- tr.ck_instr;
       rg.r_ckr <- tr.ck_rolls;
       rg.r_ckp <- tr.ck_pushes;
       rg.r_ckpk <-
         (if tr.ck_peak > 0 then stale + tr.ck_idx + tr.ck_peak else 0);
       rg.r_ai <- tr.a_instr; rg.r_ar <- tr.a_rolls; rg.r_ap <- tr.a_pushes;
       rg.r_apk <- (if tr.a_peakrel >= 0 then stale + tr.a_peakrel else 0)
     end
     else if tr.n_staled > 0 then begin
       rg.r_ai <- rg.r_ai + tr.a_instr;
       rg.r_ar <- rg.r_ar + tr.a_rolls;
       rg.r_ap <- rg.r_ap + tr.a_pushes;
       if tr.a_peakrel >= 0 && stale + tr.a_peakrel > rg.r_apk then
         rg.r_apk <- stale + tr.a_peakrel
     end);
    step t input rows (pos + 1) next (stale + tr.n_staled) fi fr fp fpk
  end
  else if next = k_match then begin
    (* success leaves the stack as-is: deferred unwind and checkpoint
       are dropped *)
    settle_regs rg fi fr fp fpk;
    pos
  end
  else if next = k_fail then begin
    (* unwind: pop stale snapshots top-down until the newest accepting
       one (if any), then match through it *)
    let fi = fi + rg.r_ai and fr = fr + rg.r_ar and fp = fp + rg.r_ap in
    let fpk = if rg.r_apk > fpk then rg.r_apk else fpk in
    if rg.r_hck then begin
      let fi = fi + rg.r_cki and fr = fr + rg.r_ckr and fp = fp + rg.r_ckp in
      settle_regs rg fi fr fp (if rg.r_ckpk > fpk then rg.r_ckpk else fpk);
      rg.r_ce
    end
    else begin
      settle_regs rg fi fr fp fpk;
      -1
    end
  end
  else raise Bail

(* Charge a finished attempt's deltas, exactly as [Plan.run] would. *)
let finish (stats : Machine.stats) rg =
  stats.Machine.attempts <- stats.Machine.attempts + 1;
  stats.Machine.instructions <- stats.Machine.instructions + rg.r_fi;
  stats.Machine.cycles <- stats.Machine.cycles + rg.r_fi + rg.r_fr;
  stats.Machine.rollbacks <- stats.Machine.rollbacks + rg.r_fr;
  stats.Machine.stack_pushes <- stats.Machine.stack_pushes + rg.r_fp;
  if rg.r_fpk > stats.Machine.max_stack_depth then
    stats.Machine.max_stack_depth <- rg.r_fpk

(* Returns [-2] on bail (no counters touched), [-1] on a failed
   attempt, the match end otherwise; [stats] is updated exactly as
   [Plan.run] would have. Caller must hold [t.mu]. *)
let run_dfa t (stats : Machine.stats) (input : string) (start : int) : int =
  let rg = t.regs in
  rg.r_ai <- 0; rg.r_ar <- 0; rg.r_ap <- 0; rg.r_apk <- 0;
  rg.r_hck <- false; rg.r_ce <- 0;
  rg.r_cki <- 0; rg.r_ckr <- 0; rg.r_ckp <- 0; rg.r_ckpk <- 0;
  match step t input t.rows.data start 0 0 0 0 0 0 with
  | r ->
    finish stats rg;
    t.c_attempts <- t.c_attempts + 1;
    r
  | exception Bail ->
    t.c_bails <- t.c_bails + 1;
    -2

(* --- Public entry points ------------------------------------------------ *)

(* Scan-level session: callers running many attempts take the lock
   once, not per offset. *)

let acquire t ~config =
  (* A configured stack capacity must raise the plan path's exact
     Stack_overflow, so such configs stay off the table entirely. A
     held lock means another caller of this domain is using the table:
     identical results either way, so don't wait, but count the
     refusal. The holder owns the instance's counters, so the refusal
     goes to the totals directly. *)
  config.Machine.stack_capacity = None
  && (Mutex.try_lock t.mu
      || begin
        add t.fam.totals.tot_refused 1;
        add process_totals.tot_refused 1;
        false
      end)

let release t =
  fold_counts t;
  Mutex.unlock t.mu

let run_acquired t ~config ~(stats : Machine.stats) (scratch : Plan.scratch)
    (input : string) (start : int) : int option =
  let r = run_dfa t stats input start in
  if r >= 0 then Some r
  else if r = -1 then None
  else Plan.run ~config ~stats t.fam.fplan scratch input start
