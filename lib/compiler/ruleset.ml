(* Rule-set management: the deployment unit of DPI engines like Snort
   (paper §7.2) is not one RE but hundreds. A ruleset compiles each
   distinct pattern once, keeps per-rule binaries and metadata, and
   scans a stream through every rule on the simulated DSA — the paper's
   model, where cores share one compiled RE and iterate the rule set per
   stream.

   Compilation is all-or-error-list: a production rule set wants to know
   every ill-formed rule, not just the first. *)

module Core = Alveare_arch.Core
module Multicore = Alveare_multicore.Multicore
module Span = Alveare_engine.Semantics

type rule = {
  id : int;
  tag : string;
  pattern : string;
}

type compiled_rule = {
  rule : rule;
  compiled : Compile.compiled;
  overlap : int;
}

(* Aho-Corasick literal index over the union of all rules' required
   literals. One pass over the stream yields, per rule, the candidate
   match-start offsets (literal position minus the literal's offset
   within the pattern); each covered rule then attempts only at its
   candidates. Rules without usable literals are not covered and scan
   with their first-set prefilter instead. *)
type index = {
  ac : Alveare_prefilter.Ac.t;
  refs : (int * int) array;  (* AC pattern idx -> (rule array idx, lit offset) *)
  covered : bool array;      (* per rule: scanned via the candidate path *)
}

type t = {
  rules : compiled_rule array;
  index : index option;
  fused : Combined.t;
}

type compile_error = {
  failed_rule : rule;
  reason : string;
}

let build_index (rules : compiled_rule array) : index option =
  let lits = ref [] and refs = ref [] and n_lits = ref 0 in
  let covered =
    Array.mapi
      (fun i r ->
         match
           Alveare_prefilter.Prefilter.usable_literals
             r.compiled.Compile.prefilter
         with
         | Some l when l.Alveare_prefilter.Prefilter.lits <> [] ->
           List.iter
             (fun s ->
                lits := s :: !lits;
                refs := (i, l.Alveare_prefilter.Prefilter.offset) :: !refs;
                incr n_lits)
             l.Alveare_prefilter.Prefilter.lits;
           true
         | Some _ | None -> false)
      rules
  in
  if !n_lits = 0 then None
  else
    Some
      { ac = Alveare_prefilter.Ac.build (List.rev !lits);
        refs = Array.of_list (List.rev !refs);
        covered }

(* Slice-parallel AC bucketing (multi-core scans): each worker runs the
   chunked automaton pass over one slice of reporting indices into
   private buckets ({!Alveare_prefilter.Ac.find_iter_chunk} — the exact
   sub-multiset of the full pass owned by that index range). Reporting
   indices ascend across slices, so concatenating in slice order and
   deduplicating reproduces a single full pass's buckets exactly. *)
let candidates_by_rule_sliced ?workers idx input n_rules ~slices =
  let n = String.length input in
  let slice = (n + slices - 1) / slices in
  let chunked =
    Alveare_exec.Pool.init ?workers slices (fun k ->
        let lo = min n (k * slice) and hi = min n ((k + 1) * slice) in
        let buckets = Array.make n_rules [] in
        Alveare_prefilter.Ac.find_iter_chunk idx.ac input ~lo ~hi
          (fun ~pat ~pos ->
             let rule_idx, lit_offset = idx.refs.(pat) in
             let start = pos - lit_offset in
             if start >= 0 then
               buckets.(rule_idx) <- start :: buckets.(rule_idx));
        buckets)
  in
  Array.init n_rules (fun i ->
      let l =
        Array.fold_left (fun acc b -> List.rev_append b.(i) acc) [] chunked
      in
      Array.of_list (List.sort_uniq compare l))

let compile ?(options = Alveare_ir.Lower.default_options) ?cache ?workers
    ?extended (specs : (string * string) list)
  : (t, compile_error list) result =
  (* Each distinct pattern compiles once, over the host pool, and every
     rule listing it shares that one compilation — so the sweep scans
     it once ({!Combined.representative}). The compile cache
     (thread-safe) deduplicates patterns across rulesets. *)
  let patterns = List.sort_uniq String.compare (List.map snd specs) in
  let by_pattern = Hashtbl.create (List.length patterns) in
  List.iter2 (Hashtbl.add by_pattern) patterns
    (Alveare_exec.Pool.map_list ?workers
       (fun pattern ->
          match Compile.cached ?cache ~options ?extended pattern with
          | Ok c -> Ok (c, Multicore.overlap_for_ast c.Compile.ast)
          | Error e -> Error (Compile.error_message e))
       patterns);
  let results =
    List.mapi
      (fun id (tag, pattern) ->
         let rule = { id; tag; pattern } in
         match Hashtbl.find by_pattern pattern with
         | Ok (compiled, overlap) -> Ok { rule; compiled; overlap }
         | Error reason -> Error { failed_rule = rule; reason })
      specs
  in
  let failures =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
  in
  if failures <> [] then Error failures
  else
    let rules =
      Array.of_list
        (List.filter_map (function Ok r -> Some r | Error _ -> None) results)
    in
    let index = build_index rules in
    let fused =
      Combined.build
        ~rules:(Array.map (fun r -> r.compiled) rules)
        ~ac:(Option.map (fun i -> (i.ac, i.refs, i.covered)) index)
    in
    Ok { rules; index; fused }

let compile_exn ?options ?cache ?workers ?extended specs =
  match compile ?options ?cache ?workers ?extended specs with
  | Ok t -> t
  | Error (e :: _) ->
    invalid_arg
      (Printf.sprintf "Ruleset.compile: rule %d (%s): %s" e.failed_rule.id
         e.failed_rule.tag e.reason)
  | Error [] -> assert false

(* Per-rule lint diagnostics, carried along by Compile so a ruleset
   build can report its ReDoS-suspect rules without re-parsing. *)
let lint_report (t : t) =
  Array.to_list t.rules
  |> List.filter_map (fun r ->
      match r.compiled.Compile.lint with
      | [] -> None
      | ds -> Some (r.rule, ds))

(* Per-rule precise ambiguity verdicts (every rule appears — an
   admission gate needs the Linear rows too, to count them). *)
let analysis_report (t : t) =
  Array.to_list t.rules
  |> List.map (fun r -> (r.rule, r.compiled.Compile.analysis))

let size t = Array.length t.rules

let rules t = Array.to_list (Array.map (fun r -> r.rule) t.rules)

let find_rule t id =
  match Array.find_opt (fun r -> r.rule.id = id) t.rules with
  | Some r -> Some r.rule
  | None -> None

type hit = {
  hit_rule : rule;
  span : Span.span;
}

type report = {
  hits : hit list;               (* ordered by rule id, then position *)
  total_wall_cycles : int;       (* sum over rules of per-rule wall cycles *)
  seconds : float;               (* modelled DSA time incl. dispatch/rule *)
  per_rule_cycles : (int * int) list;
  total_attempts : int;
  total_offsets_scanned : int;
  total_offsets_pruned : int;
  prefiltered_rules : int;       (* rules scanned via the AC candidate path *)
}

(* Covered rule at [cores > 1]: mirror [Multicore.run]'s slicing (same
   regions, same ownership filter, same dedup, wall cycles = max over
   cores), but attempt only at the rule's global candidate offsets
   restricted to each core's region and rebased into region
   coordinates. Any true match inside a region carries its literal
   inside the region, so the global bucket contains its start — hits
   equal the unfiltered multi-core scan. Runs sequentially: the caller
   already fans rules out over the host pool. *)
let scan_covered_multicore ~cores (r : compiled_rule)
    (cands : int array) (input : string) =
  let n = String.length input in
  let slice = (n + cores - 1) / cores in
  let per_core =
    Array.init cores (fun k ->
        let slice_start = min n (k * slice) in
        let slice_stop = min n ((k + 1) * slice) in
        let region_stop = min n (slice_stop + r.overlap) in
        let stats = Core.fresh_stats () in
        let owned =
          if slice_start >= region_stop && not (slice_start = n && k = 0)
          then []
          else begin
            let region =
              String.sub input slice_start (region_stop - slice_start)
            in
            let local =
              Array.fold_right
                (fun c acc ->
                   if c >= slice_start && c < region_stop then
                     (c - slice_start) :: acc
                   else acc)
                cands []
              |> Array.of_list
            in
            Core.find_all_candidates ~stats ~candidates:local
              ~plan:r.compiled.Compile.plan ?dfa:r.compiled.Compile.dfa
              r.compiled.Compile.program region
            |> List.filter_map (fun (s : Span.span) ->
                let start = s.Span.start + slice_start in
                let stop = s.Span.stop + slice_start in
                if start < slice_stop || (start = n && slice_stop = n) then
                  Some { Span.start; stop }
                else None)
          end
        in
        (owned, stats))
  in
  let matches =
    Array.to_list per_core
    |> List.concat_map fst
    |> List.sort_uniq compare
  in
  let cycles =
    Array.fold_left (fun acc (_, s) -> max acc s.Core.cycles) 0 per_core
  in
  let sum f = Array.fold_left (fun acc (_, s) -> acc + f s) 0 per_core in
  ( cycles, matches,
    ( sum (fun s -> s.Core.attempts),
      sum (fun s -> s.Core.offsets_scanned),
      sum (fun s -> s.Core.offsets_pruned) ),
    true )

(* Scan the stream through every rule. Rules run one after another on the
   DSA (the instruction memory holds one compiled RE at a time, §6), so
   total time sums per-rule wall cycles plus one dispatch per rule — the
   modelled DSA cost is unchanged by [workers], which only parallelises
   the host-side simulation of the independent per-rule runs. Per-rule
   results are folded back in rule order, so hits and cycle accounting
   are identical to the sequential scan.

   The host scans each group of rules sharing one compilation
   ({!Combined.representative}) once: a rule's result is a function of
   its compilation and the input alone, so every rule of the group
   takes the group's result under its own id and tag. The modelled
   accounting still loads and runs every rule.

   With [prefilter] (the default) single-core scans run the fused
   {!Combined} sweep: ONE pass walks the AC automaton and dispatches
   first-set candidates into per-group scan cursors; AC-covered groups
   then attempt only at their candidate offsets. Multi-core scans slice
   the AC pass across workers instead, and every other rule scans with
   its first-set skip loop. Hits are identical to the unfiltered scan
   either way. *)
let scan ?(cores = 1) ?workers ?(prefilter = true) (t : t) (input : string)
    : report =
  let outcome =
    if prefilter && cores = 1 then Array.get (Combined.scan t.fused input)
    else
      match t.index with
      | Some idx when prefilter ->
        let cands =
          candidates_by_rule_sliced ?workers idx input (Array.length t.rules)
            ~slices:cores
        in
        fun i ->
          if idx.covered.(i) then Combined.Candidates cands.(i)
          else Combined.Residual
      | Some _ | None -> fun _ -> Combined.Residual
  in
  let group = Combined.representative t.fused in
  let scan_group i r =
    let from_candidates cands =
      if cores = 1 then begin
        let stats = Core.fresh_stats () in
        let matches =
          Core.find_all_candidates ~stats ~candidates:cands
            ~plan:r.compiled.Compile.plan ?dfa:r.compiled.Compile.dfa
            r.compiled.Compile.program input
        in
        ( stats.Core.cycles, matches,
          (stats.Core.attempts, stats.Core.offsets_scanned,
           stats.Core.offsets_pruned),
          true )
      end
      else scan_covered_multicore ~cores r cands input
    in
    let residual () =
      let config = Multicore.config ~cores ~overlap:r.overlap () in
      let pf = if prefilter then Some r.compiled.Compile.prefilter else None in
      let result =
        Multicore.run ?prefilter:pf ~plan:r.compiled.Compile.plan
          ?dfa:r.compiled.Compile.dfa ~config r.compiled.Compile.program input
      in
      let sum f =
        Array.fold_left
          (fun acc c -> acc + f c.Multicore.stats)
          0 result.Multicore.per_core
      in
      ( result.Multicore.cycles, result.Multicore.matches,
        ( sum (fun s -> s.Core.attempts),
          sum (fun s -> s.Core.offsets_scanned),
          sum (fun s -> s.Core.offsets_pruned) ),
        false )
    in
    match r.compiled.Compile.backend with
    | Compile.Derivative eng ->
      (* extended rules the mid-end could not rewrite run on the host
         derivative engine, outside the DSA cycle model: they
         contribute hits but no modelled cycles or attempt counters
         (they are never AC-covered — extended patterns yield no usable
         literals) *)
      (0, Alveare_derivative.Engine.find_all eng input, (0, 0, 0), false)
    | Compile.Isa | Compile.Isa_lowered ->
      (match outcome i with
       | Combined.Scanned (stats, matches) ->
         ( stats.Core.cycles, matches,
           (stats.Core.attempts, stats.Core.offsets_scanned,
            stats.Core.offsets_pruned),
           false )
       | Combined.Candidates cands -> from_candidates cands
       | Combined.Residual -> residual ())
  in
  let group_results =
    Alveare_exec.Pool.map ?workers
      (fun (i, r) -> if group i = i then Some (scan_group i r) else None)
      (Array.mapi (fun i r -> (i, r)) t.rules)
  in
  let per_rule_results =
    Array.mapi
      (fun i r ->
         match group_results.(group i) with
         | Some (cycles, matches, counters, ac) ->
           (r.rule, cycles, matches, counters, ac)
         | None -> assert false)
      t.rules
  in
  let hits =
    Array.to_list per_rule_results
    |> List.concat_map (fun (rule, _, matches, _, _) ->
        List.map (fun span -> { hit_rule = rule; span }) matches)
  in
  let total =
    Array.fold_left
      (fun acc (_, cycles, _, _, _) -> acc + cycles)
      0 per_rule_results
  in
  let sum_stat k =
    Array.fold_left
      (fun acc (_, _, _, stats, _) -> acc + k stats)
      0 per_rule_results
  in
  let seconds =
    (float_of_int total /. Alveare_platform.Calibration.alveare_clock_hz)
    +. (float_of_int (size t)
        *. Alveare_platform.Calibration.alveare_job_overhead_s)
  in
  { hits;
    total_wall_cycles = total;
    seconds;
    per_rule_cycles =
      Array.to_list
        (Array.map
           (fun (rule, cycles, _, _, _) -> (rule.id, cycles))
           per_rule_results);
    total_attempts = sum_stat (fun (a, _, _) -> a);
    total_offsets_scanned = sum_stat (fun (_, s, _) -> s);
    total_offsets_pruned = sum_stat (fun (_, _, p) -> p);
    prefiltered_rules =
      Array.fold_left
        (fun acc (_, _, _, _, ac) -> if ac then acc + 1 else acc)
        0 per_rule_results }

let hits_for report id =
  List.filter (fun h -> h.hit_rule.id = id) report.hits
