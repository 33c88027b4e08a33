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

type t = {
  rules : compiled_rule array;
  fused : Combined.t;
}

type compile_error = {
  failed_rule : rule;
  reason : string;
}

(* The Aho-Corasick literal index over the union of all rules' required
   literals, as {!Combined.build} takes it: the automaton, each
   literal's (rule, offset within the match), and per rule whether it
   is covered. A covered rule attempts only at its candidate starts
   (literal position minus the literal's offset); the others scan with
   their first-set prefilter. [None] when no rule has usable
   literals. *)
let literal_index (rules : compiled_rule array) =
  let lits = ref [] and refs = ref [] in
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
                refs := (i, l.Alveare_prefilter.Prefilter.offset) :: !refs)
             l.Alveare_prefilter.Prefilter.lits;
           true
         | Some _ | None -> false)
      rules
  in
  if !lits = [] then None
  else
    Some
      ( Alveare_prefilter.Ac.build (List.rev !lits),
        Array.of_list (List.rev !refs),
        covered )

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
    let fused =
      Combined.build
        ~rules:(Array.map (fun r -> r.compiled) rules)
        ~ac:(literal_index rules)
    in
    Ok { rules; fused }

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

(* What one group's scan contributes to the report, for each of its
   rules: the spans and the counters the report sums, not the whole
   stats record, which would stay live until the last group is done. *)
type rule_scan = {
  wall_cycles : int;
  spans : Span.span list;
  attempts : int;
  offsets_scanned : int;
  offsets_pruned : int;
  via_ac : bool;
}

let rule_scan ~via_ac wall_cycles spans (s : Core.stats) =
  { wall_cycles; spans; attempts = s.Core.attempts;
    offsets_scanned = s.Core.offsets_scanned;
    offsets_pruned = s.Core.offsets_pruned; via_ac }

(* One pattern's scan outside the sweep: a ruleset rule's after it, the
   daemon's [Scan] and the façade's [find_all]. An ISA pattern is one
   [Multicore.run] with the given overlap window, at any core count,
   attempting at [candidates] when given and otherwise at every offset
   the first-set prefilter admits ([prefilter], default on). Extended
   patterns the mid-end could not rewrite run on the host derivative
   engine, outside the DSA cycle model: hits but no modelled cycles or
   attempt counters (they are never AC-covered — extended patterns
   yield no usable literals). *)
let scan_compiled ?workers ?(cores = 1) ?candidates ?(prefilter = true)
    ~overlap (c : Compile.compiled) input =
  match c.Compile.backend with
  | Compile.Derivative eng ->
    { wall_cycles = 0; spans = Alveare_derivative.Engine.find_all eng input;
      attempts = 0; offsets_scanned = 0; offsets_pruned = 0; via_ac = false }
  | Compile.Isa | Compile.Isa_lowered ->
    let res =
      Multicore.run ?workers ?candidates
        ?prefilter:
          (if prefilter && Option.is_none candidates then
             Some c.Compile.prefilter
           else None)
        ~plan:c.Compile.plan ?dfa:c.Compile.dfa
        ~config:(Multicore.config ~cores ~overlap ())
        c.Compile.program input
    in
    rule_scan ~via_ac:(Option.is_some candidates) res.Multicore.cycles
      res.Multicore.matches res.Multicore.totals

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

   With [prefilter] (the default) the scan runs the fused {!Combined}
   sweep, at any core count: ONE pass walks the AC automaton, and
   AC-covered groups then attempt only at their candidate offsets. At
   one core the same pass dispatches first-set candidates into per-group
   scan cursors; at more, every other rule scans with its first-set
   skip loop. Every post-sweep scan is one [scan_compiled] with the
   rule's overlap window. Hits are identical to the unfiltered scan
   either way. *)
let scan ?(cores = 1) ?workers ?(prefilter = true) (t : t) (input : string)
    : report =
  if cores < 1 then invalid_arg "Ruleset.scan: cores must be positive";
  let outcome =
    if prefilter then Array.get (Combined.scan ~cores t.fused input)
    else fun _ -> Combined.Residual
  in
  let group = Combined.representative t.fused in
  let scan_group i r =
    match outcome i with
    | Combined.Scanned (stats, matches) ->
      rule_scan ~via_ac:false stats.Core.cycles matches stats
    | Combined.Candidates candidates ->
      scan_compiled ~cores ~candidates ~overlap:r.overlap r.compiled input
    | Combined.Residual ->
      scan_compiled ~cores ~prefilter ~overlap:r.overlap r.compiled input
  in
  let group_results =
    Alveare_exec.Pool.init ?workers (Array.length t.rules) (fun i ->
        if group i = i then Some (scan_group i t.rules.(i)) else None)
  in
  (* every rule takes its group's result *)
  let per_rule =
    Array.mapi (fun i r -> (r.rule, Option.get group_results.(group i))) t.rules
  in
  let sum f = Array.fold_left (fun acc (_, g) -> acc + f g) 0 per_rule in
  let total = sum (fun g -> g.wall_cycles) in
  let seconds =
    (float_of_int total /. Alveare_platform.Calibration.alveare_clock_hz)
    +. (float_of_int (size t)
        *. Alveare_platform.Calibration.alveare_job_overhead_s)
  in
  { hits =
      Array.to_list per_rule
      |> List.concat_map (fun (rule, g) ->
          List.map (fun span -> { hit_rule = rule; span }) g.spans);
    total_wall_cycles = total;
    seconds;
    per_rule_cycles =
      Array.to_list
        (Array.map (fun (r, g) -> (r.id, g.wall_cycles)) per_rule);
    total_attempts = sum (fun g -> g.attempts);
    total_offsets_scanned = sum (fun g -> g.offsets_scanned);
    total_offsets_pruned = sum (fun g -> g.offsets_pruned);
    prefiltered_rules = sum (fun g -> Bool.to_int g.via_ac) }

let hits_for report id =
  List.filter (fun h -> h.hit_rule.id = id) report.hits
