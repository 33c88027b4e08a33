(* Incremental scan cursor: the plan path's scan-loop body, once.

   The vector unit prunes start offsets that fail the leading
   instruction, [compute_units] offsets per cycle; an offset that
   passes costs a full attempt. Every scan driver (Core's prefilter,
   candidate and dense skip loops, and the fused ruleset sweep in
   Combined) feeds this cursor ascending candidates, so the counters of
   a scan do not depend on which driver enumerated its candidates.
   Offsets the driver skipped are still counted in [offsets_scanned]
   and [offsets_pruned] and charged the same scan cycles as a dense
   scan would, so cycle/offset accounting stays comparable across modes
   (the ablation tables rely on this). *)

module Span = Alveare_engine.Semantics

type t = {
  config : Machine.config;
  stats : Machine.stats;
  plan : Plan.t;
  scratch : Plan.scratch;
  input : string;
  leading : Plan.leading;
  all : bool;
  trace : Trace.t option;
  mutable session : Dfa_overlay.t option;
  mutable offset : int;
  mutable rejected : int;  (* offsets pruned since the last attempt *)
  mutable found : Span.span list;  (* reversed *)
}

(* The overlay is engaged only when the family was built from this very
   plan (physical equality guards against a mismatched plan/family
   pair), the scan is not traced (the table has no per-cycle events)
   and the instance is available ([acquire] refuses finite stack
   capacities and contended instances). The lock is taken once per
   scan, not per attempt. *)
let start ?trace ~dfa ~config ~stats ~all plan scratch input from =
  let session =
    match dfa with
    | Some fam when Option.is_none trace && Dfa_overlay.plan_of fam == plan ->
      let d = Dfa_overlay.get fam in
      if Dfa_overlay.acquire d ~config then Some d else None
    | Some _ | None -> None
  in
  { config; stats; plan; scratch; input; leading = Plan.leading plan; all;
    trace; session; offset = from; rejected = 0; found = [] }

let session c = c.session

let release c =
  match c.session with
  | Some d ->
    c.session <- None;
    Dfa_overlay.release d
  | None -> ()

let flush_run c =
  if c.rejected > 0 then begin
    let cu = c.config.Machine.compute_units in
    let cycles = (c.rejected + cu - 1) / cu in
    c.stats.Machine.scan_cycles <- c.stats.Machine.scan_cycles + cycles;
    c.stats.Machine.cycles <- c.stats.Machine.cycles + cycles;
    (match c.trace with
     | Some tr ->
       Trace.record tr
         { Trace.cycle = c.stats.Machine.cycles; pc = 0; cursor = 0;
           stack_depth = 0; kind = Trace.Scan_skip c.rejected }
     | None -> ());
    c.rejected <- 0
  end

let prune c k =
  c.stats.Machine.offsets_scanned <- c.stats.Machine.offsets_scanned + k;
  c.stats.Machine.offsets_pruned <- c.stats.Machine.offsets_pruned + k;
  c.rejected <- c.rejected + k

let filter_pass c cand =
  match c.leading with
  | Plan.Lead_none -> true
  | Plan.Lead_literal lit ->
    cand < String.length c.input && Plan.literal_matches c.input cand lit
  | Plan.Lead_set bits ->
    cand < String.length c.input
    && Plan.set_mem bits (String.unsafe_get c.input cand)

let offer c cand =
  if cand >= c.offset then begin
    if cand > c.offset then prune c (cand - c.offset);
    if not (filter_pass c cand) then begin
      prune c 1;
      c.offset <- cand + 1
    end
    else begin
      let stats = c.stats and config = c.config in
      stats.Machine.offsets_scanned <- stats.Machine.offsets_scanned + 1;
      flush_run c;
      let r =
        match c.session with
        | Some d ->
          Dfa_overlay.run_acquired d ~config ~stats c.scratch c.input cand
        | None ->
          Plan.run ~config ?trace:c.trace ~stats c.plan c.scratch c.input cand
      in
      match r with
      | Some stop ->
        let span = { Span.start = cand; stop } in
        c.found <- span :: c.found;
        stats.Machine.match_count <- stats.Machine.match_count + 1;
        c.offset <-
          (if c.all then Span.next_scan_position span
           else String.length c.input + 1)
      | None -> c.offset <- cand + 1
    end
  end;
  c.offset

let finish c =
  let n = String.length c.input in
  if c.offset <= n then prune c (n - c.offset + 1);
  flush_run c;
  release c;
  List.rev c.found
