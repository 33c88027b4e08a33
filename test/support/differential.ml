(* Cross-engine differential check: one case = one random AST + input,
   every engine in the repository checked against the backtracking
   oracle. Shared by the standalone fuzzer (bin/alveare_fuzz, unbounded
   case counts) and the bounded CI corpus (test/test_differential.ml),
   so the oracle agreement is exercised on every `dune runtest` and not
   only when someone runs the fuzzer by hand. *)

module Compile = Alveare_compiler.Compile
module Core = Alveare_arch.Core
module Multicore = Alveare_multicore.Multicore
module Backtrack = Alveare_engine.Backtrack
module Pike = Alveare_engine.Pike_vm
module Nfa = Alveare_engine.Nfa
module Dfa = Alveare_engine.Lazy_dfa
module Counting = Alveare_engine.Counting
module Engine = Alveare_derivative.Engine
module S = Alveare_engine.Semantics

type failure = {
  engine : string;
  pattern : string;
  input : string;
  detail : string;
}

let show_spans spans = Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) spans

let pp_failure ppf f =
  Fmt.pf ppf "%s DIVERGES@.  pattern: %s@.  input:   %S@.  %s" f.engine
    f.pattern f.input f.detail

let check_case ast input : failure list =
  let pattern = Alveare_frontend.Ast.to_pattern ast in
  match Compile.compile_ast ast with
  | Error _ -> [] (* jump-field overflow: legitimately uncompilable *)
  | Ok c ->
    let oracle = Backtrack.find_all c.Compile.ast input in
    let failures = ref [] in
    let fail engine detail =
      failures := { engine; pattern; input; detail } :: !failures
    in
    (* derivative engine: the Brzozowski-derivative semantic oracle
       must agree span-for-span with the backtracking oracle (and hence
       with every ISA engine below) on the POSIX-ERE fragment *)
    let deriv = Engine.find_all (Engine.of_ast c.Compile.ast) input in
    if deriv <> oracle then
      fail "derivative"
        (Fmt.str "deriv %s oracle %s" (show_spans deriv) (show_spans oracle));
    (* simulator: exact spans *)
    let sim = Core.find_all c.Compile.program input in
    if sim <> oracle then
      fail "simulator"
        (Fmt.str "sim %s oracle %s" (show_spans sim) (show_spans oracle));
    (* plan executor vs the reference interpreter (Core_oracle):
       identical spans AND a bit-identical stats record (every counter,
       including cycles and max stack depth) on the dense and
       prefiltered scans *)
    let show_stats (s : Core.stats) =
      Fmt.str
        "cyc=%d ins=%d rb=%d push=%d depth=%d scan=%d att=%d seen=%d \
         pruned=%d hits=%d"
        s.Core.cycles s.Core.instructions s.Core.rollbacks s.Core.stack_pushes
        s.Core.max_stack_depth s.Core.scan_cycles s.Core.attempts
        s.Core.offsets_scanned s.Core.offsets_pruned s.Core.match_count
    in
    let plan_vs_oracle engine ?prefilter () =
      let ps = Core.fresh_stats () in
      let os = Core.fresh_stats () in
      let pm =
        Core.find_all ~stats:ps ?prefilter ~plan:c.Compile.plan
          c.Compile.program input
      in
      let om = Core_oracle.find_all ~stats:os ?prefilter c.Compile.program input in
      if pm <> om then
        fail engine
          (Fmt.str "plan %s oracle %s" (show_spans pm) (show_spans om));
      if ps <> os then
        fail engine
          (Fmt.str "stats diverge@.  plan:   %s@.  oracle: %s" (show_stats ps)
             (show_stats os))
    in
    plan_vs_oracle "plan-dense" ();
    plan_vs_oracle "plan+prefilter" ~prefilter:c.Compile.prefilter ();
    (* lazy-DFA overlay vs plain plan path: identical spans AND a
       bit-identical stats record, dense and prefiltered, plus a
       2-state arena (constant flushing) as graceful-degradation
       coverage. Skipped when the family is None (trivial fragments). *)
    let dfa_vs_plan engine fam run =
      let ds = Core.fresh_stats () in
      let ps = Core.fresh_stats () in
      let dm = run ~stats:ds ~dfa:(Some fam) in
      let pm = run ~stats:ps ~dfa:None in
      if dm <> pm then
        fail engine (Fmt.str "dfa %s plan %s" (show_spans dm) (show_spans pm));
      if ds <> ps then
        fail engine
          (Fmt.str "stats diverge@.  dfa:  %s@.  plan: %s" (show_stats ds)
             (show_stats ps))
    in
    (match c.Compile.dfa with
     | None -> ()
     | Some fam ->
       let tiny =
         Alveare_arch.Dfa_overlay.family ~max_states:2
           ~fragments:c.Compile.safe_fragments c.Compile.plan
       in
       List.iter
         (fun (tag, fam) ->
            dfa_vs_plan ("dfa-dense" ^ tag) fam (fun ~stats ~dfa ->
                Core.find_all ~stats ?dfa ~plan:c.Compile.plan
                  c.Compile.program input);
            dfa_vs_plan ("dfa+prefilter" ^ tag) fam (fun ~stats ~dfa ->
                Core.find_all ~stats ?dfa ~plan:c.Compile.plan
                  ~prefilter:c.Compile.prefilter c.Compile.program input))
         (("", fam)
          :: (match tiny with Some f -> [ ("-tiny", f) ] | None -> [])));
    (* prefiltered simulator: the start-of-match skip loop must be
       invisible in the reported spans — same oracle, same chain *)
    let simf = Core.find_all ~prefilter:c.Compile.prefilter c.Compile.program input in
    if simf <> oracle then
      fail "simulator+prefilter"
        (Fmt.str "sim %s oracle %s" (show_spans simf) (show_spans oracle));
    (* search ~from: prefiltered leftmost search agrees with the dense
       one from every interesting starting offset *)
    List.iter
      (fun from ->
         let dense = Core.search ~from c.Compile.program input in
         let fast =
           Core.search ~prefilter:c.Compile.prefilter ~from c.Compile.program
             input
         in
         if dense <> fast then
           fail "search+prefilter"
             (Fmt.str "from %d: dense %s prefiltered %s" from
                (match dense with Some s -> show_spans [ s ] | None -> "none")
                (match fast with Some s -> show_spans [ s ] | None -> "none")))
      [ 0; 1; String.length input / 2; String.length input ];
    (* multi-core scale-out: the stitched cores return the one-core
       scan's spans, dense and prefiltered, with the pattern's own
       overlap window (these inputs are far shorter than the 4,096-byte
       window of an unbounded pattern, so no match is cut) *)
    let overlap = Multicore.overlap_for_ast c.Compile.ast in
    List.iter
      (fun (engine, prefilter, one_core) ->
         let mc =
           (Multicore.run ?prefilter ~plan:c.Compile.plan
              ~config:(Multicore.config ~cores:3 ~overlap ())
              c.Compile.program input)
             .Multicore.matches
         in
         if mc <> one_core then
           fail engine
             (Fmt.str "3 cores %s one core %s" (show_spans mc)
                (show_spans one_core)))
      [ ("multicore", None, sim);
        ("multicore+prefilter", Some c.Compile.prefilter, simf) ];
    (* pike: existence + leftmost start *)
    let nfa = Nfa.of_ast_exn c.Compile.ast in
    (match Pike.search nfa input (), Backtrack.search c.Compile.ast input with
     | None, None -> ()
     | Some a, Some b when a.S.start = b.S.start -> ()
     | a, b ->
       fail "pike"
         (Fmt.str "pike %s oracle %s"
            (match a with Some s -> show_spans [ s ] | None -> "none")
            (match b with Some s -> show_spans [ s ] | None -> "none")));
    (* lazy dfa and counting: agreement on earliest end *)
    let dfa_end = Dfa.search_end (Dfa.create nfa) input in
    let csa_end = Counting.search_end (Counting.of_ast_exn c.Compile.ast) input in
    if dfa_end <> csa_end then
      fail "counting"
        (Fmt.str "dfa %s csa %s"
           (match dfa_end with Some e -> string_of_int e | None -> "none")
           (match csa_end with Some e -> string_of_int e | None -> "none"));
    !failures

(* Seeded sweep: [on_failure] fires per divergence (with the 1-based case
   index) so callers can stream diagnostics; returns all failures. *)
let run_corpus ?(on_failure = fun _ _ -> ()) ~count ~seed () : failure list =
  let rng = Alveare_workloads.Rng.create seed in
  let failures = ref [] in
  for k = 1 to count do
    let ast, input = Gen_ast.random_case rng in
    List.iter
      (fun f ->
         failures := f :: !failures;
         on_failure k f)
      (check_case ast input)
  done;
  List.rev !failures

(* --- Extended dialect: lowering vs the derivative oracle ------------ *)

(* One extended case = the mid-end elimination pipeline checked end to
   end against the derivative engine run on the ORIGINAL ast. Whatever
   backend [Compile.compile_ast] routes the pattern to — plain ISA
   after a complete rewrite (Isa / Isa_lowered) or the derivative
   engine itself — the reported spans must equal the oracle's, on both
   the dense and the prefiltered scan. *)
let check_extended_case ast input : failure list =
  let ast = Alveare_frontend.Desugar.normalize ast in
  let pattern = Alveare_frontend.Ast.to_pattern ast in
  let oracle = Engine.find_all (Engine.of_ast ast) input in
  match Compile.compile_ast ast with
  | Error _ -> [] (* jump-field overflow on a lowered body: uncompilable *)
  | Ok c ->
    let failures = ref [] in
    let fail engine detail =
      failures := { engine; pattern; input; detail } :: !failures
    in
    (match c.Compile.backend with
     | Compile.Derivative eng ->
       let spans = Engine.find_all eng input in
       if spans <> oracle then
         fail "ext-derivative"
           (Fmt.str "served %s oracle %s" (show_spans spans)
              (show_spans oracle))
     | Compile.Isa | Compile.Isa_lowered ->
       let dense =
         Core.find_all ~plan:c.Compile.plan c.Compile.program input
       in
       if dense <> oracle then
         fail "ext-lowered"
           (Fmt.str "lowered %s oracle %s" (show_spans dense)
              (show_spans oracle));
       let filtered =
         Core.find_all ~plan:c.Compile.plan ~prefilter:c.Compile.prefilter
           c.Compile.program input
       in
       if filtered <> oracle then
         fail "ext-lowered+prefilter"
           (Fmt.str "lowered %s oracle %s" (show_spans filtered)
              (show_spans oracle)));
    !failures

let run_extended_corpus ?(on_failure = fun _ _ -> ()) ~count ~seed ()
    : failure list =
  let rng = Alveare_workloads.Rng.create seed in
  let failures = ref [] in
  for k = 1 to count do
    let ast, input = Gen_ast.random_extended_case rng in
    List.iter
      (fun f ->
         failures := f :: !failures;
         on_failure k f)
      (check_extended_case ast input)
  done;
  List.rev !failures

(* --- Optimised vs unoptimised -------------------------------------- *)

(* The rewrite optimiser's contract, checked end to end on the real
   execution paths: the optimised and unoptimised compilations of one
   AST report bit-identical span chains on every scan configuration
   (reference interpreter, plan and overlay × prefilter on/off), and
   the optimised program never does more speculative work — its
   attempt count is no worse, and so is its combined attempt +
   scan-cycle total. (Raw scan cycles MAY rise: factoring an
   alternation head into a class gives the program a leading-instruction
   vector filter, which turns full attempts into cheap scan rejections
   at <= 1 scan cycle per attempt saved — that trade is exactly the
   point, and the combined total catches any real regression.) Each
   compilation scans with its own prefilter, exactly as production
   does. *)
let check_opt_case ast input : failure list =
  let pattern = Alveare_frontend.Ast.to_pattern ast in
  match
    ( Compile.compile_ast ast,
      Compile.compile_ast
        ~options:{ Alveare_ir.Lower.default_options with optimize = false }
        ast )
  with
  | Error _, Error _ -> [] (* legitimately uncompilable either way *)
  | Ok _, Error _ ->
    [ { engine = "opt-totality"; pattern; input;
        detail = "unoptimised compilation failed but optimised succeeded" } ]
  | Error _, Ok _ ->
    (* the optimiser turned a compilable pattern uncompilable *)
    [ { engine = "opt-totality"; pattern; input;
        detail = "optimised compilation failed but unoptimised succeeded" } ]
  | Ok o, Ok r ->
    let failures = ref [] in
    let fail engine detail =
      failures := { engine; pattern; input; detail } :: !failures
    in
    let run (c : Compile.compiled) ~executor ~prefilter =
      let stats = Core.fresh_stats () in
      let prefilter = if prefilter then Some c.Compile.prefilter else None in
      let spans =
        match executor with
        | `Oracle -> Core_oracle.find_all ~stats ?prefilter c.Compile.program input
        | `Plan | `Dfa ->
          let dfa = if executor = `Dfa then c.Compile.dfa else None in
          Core.find_all ~stats ?prefilter ~plan:c.Compile.plan ?dfa
            c.Compile.program input
      in
      (spans, stats)
    in
    List.iter
      (fun (name, executor, prefilter) ->
         let os, ostats = run o ~executor ~prefilter in
         let rs, rstats = run r ~executor ~prefilter in
         if os <> rs then
           fail ("opt-" ^ name)
             (Fmt.str "optimised %s unoptimised %s" (show_spans os)
                (show_spans rs));
         if ostats.Core.attempts > rstats.Core.attempts then
           fail ("opt-" ^ name)
             (Fmt.str "attempts worse: optimised %d unoptimised %d"
                ostats.Core.attempts rstats.Core.attempts);
         let combined (s : Core.stats) = s.Core.attempts + s.Core.scan_cycles in
         if combined ostats > combined rstats then
           fail ("opt-" ^ name)
             (Fmt.str
                "attempts+scan cycles worse: optimised %d+%d unoptimised %d+%d"
                ostats.Core.attempts ostats.Core.scan_cycles
                rstats.Core.attempts rstats.Core.scan_cycles))
      [ ("dense-oracle", `Oracle, false);
        ("dense-plan", `Plan, false);
        ("dense-plan-dfa", `Dfa, false);
        ("prefilter-oracle", `Oracle, true);
        ("prefilter-plan", `Plan, true);
        ("prefilter-plan-dfa", `Dfa, true) ];
    (* the emitted binary must never grow (compile-driver guard) *)
    if Compile.code_size o > Compile.code_size r then
      fail "opt-size"
        (Fmt.str "code size worse: optimised %d unoptimised %d"
           (Compile.code_size o) (Compile.code_size r));
    !failures

let run_opt_corpus ?(on_failure = fun _ _ -> ()) ~count ~seed () : failure list =
  let rng = Alveare_workloads.Rng.create seed in
  let failures = ref [] in
  for k = 1 to count do
    let ast, input = Gen_ast.random_case rng in
    List.iter
      (fun f ->
         failures := f :: !failures;
         on_failure k f)
      (check_opt_case ast input)
  done;
  List.rev !failures

(* --- One-pass fused ruleset scan vs the per-rule path ---------------- *)

module Ruleset = Alveare_compiler.Ruleset

(* The fused engine's contract: for any ruleset and input, the
   prefiltered [Ruleset.scan ~cores] report is bit-identical to the
   rule-by-rule reference at the same core count ([Per_rule.scan
   ~cores]) — tagged (rule, span) hits in the same order, the same
   per-rule cycles, and the same aggregate attempt / scanned / pruned /
   prefiltered counters — at every core count in [cores] (by default 1,
   3 and 4; 3 cuts uneven slices). Each report is held against the
   reference with the overlay on and off (the off reference pins
   plain-plan attempts), and its hits additionally against the
   unfiltered scan at the same core count. [extended] parses the rules
   in the extended dialect. *)
let check_onepass_case ?(cores = [ 1; 3; 4 ]) ?extended
    (specs : (string * string) list) (input : string) : failure list =
  match Ruleset.compile ?extended specs with
  | Error _ -> [] (* ill-formed rule: compile-error reporting, not scan *)
  | Ok rs ->
    let failures = ref [] in
    let pattern = String.concat " | " (List.map snd specs) in
    let fail engine detail =
      failures := { engine; pattern; input; detail } :: !failures
    in
    let tagged (r : Ruleset.report) =
      List.map
        (fun (h : Ruleset.hit) ->
           (h.Ruleset.hit_rule.Ruleset.id, h.Ruleset.span))
        r.Ruleset.hits
    in
    let show_report (r : Ruleset.report) =
      Fmt.str "wall=%d att=%d seen=%d pruned=%d pf=%d hits=[%s]"
        r.Ruleset.total_wall_cycles r.Ruleset.total_attempts
        r.Ruleset.total_offsets_scanned r.Ruleset.total_offsets_pruned
        r.Ruleset.prefiltered_rules
        (String.concat ";"
           (List.map
              (fun (id, (sp : S.span)) ->
                 Fmt.str "%d:%d-%d" id sp.S.start sp.S.stop)
              (tagged r)))
    in
    List.iter
      (fun cores ->
         let scan = Ruleset.scan ~cores rs input in
         List.iter
           (fun dfa ->
              let reference = Per_rule.scan ~cores ~dfa rs input in
              if scan <> reference then
                fail
                  (Fmt.str "onepass-c%d%s" cores (if dfa then "" else "-nodfa"))
                  (Fmt.str "report diverges@.  fused:    %s@.  per-rule: %s"
                     (show_report scan) (show_report reference)))
           [ true; false ];
         let dense = Ruleset.scan ~cores ~prefilter:false rs input in
         if tagged scan <> tagged dense then
           fail
             (Fmt.str "onepass-c%d-vs-dense" cores)
             (Fmt.str "hits diverge@.  prefiltered: %s@.  dense:       %s"
                (show_report scan) (show_report dense)))
      cores;
    !failures

(* Same contract over the three workload samplers: each generated rule
   is checked on a noise stream with a planted witness drawn from the
   rule's own language, so the comparison exercises both hit and miss
   paths of the scan. *)
let run_opt_workloads ?(per_workload = 40) ~seed () : failure list =
  let module W = Alveare_workloads in
  let failures = ref [] in
  List.iter
    (fun (wseed, background, patterns) ->
       let rng = W.Rng.create (seed + wseed) in
       List.iter
         (fun p ->
            match Alveare_frontend.Parser.parse_result p with
            | Error _ -> () (* samplers emit only parseable rules; lint covers this *)
            | Ok ast ->
              let noise n = String.init n (fun _ -> background rng) in
              let witness =
                try W.Sampler.sample rng ast with Invalid_argument _ -> ""
              in
              let input = noise 48 ^ witness ^ noise 32 in
              failures := List.rev_append (check_opt_case ast input) !failures)
         patterns)
    [ (1, W.Streams.lowercase_text,
       W.Powren.patterns (W.Rng.create (seed + 11)) per_workload);
      (2, W.Streams.protein,
       W.Protomata.patterns (W.Rng.create (seed + 12)) per_workload);
      (3, W.Streams.network,
       W.Snort.patterns (W.Rng.create (seed + 13)) per_workload) ];
  List.rev !failures

(* One-pass contract over the workload samplers: here the unit is a
   whole RULESET per sampler, not one rule at a time — the fused sweep
   only does interesting work (shared dispatch, overlapping literals,
   concurrent product threads) when many rules scan the same stream.
   Witnesses for a fifth of the rules are planted in the noise so the
   sweep resolves real hits, not just misses. *)
let run_onepass_workloads ?(per_workload = 30) ~seed () : failure list =
  let module W = Alveare_workloads in
  let failures = ref [] in
  List.iter
    (fun (wseed, background, patterns) ->
       let rng = W.Rng.create (seed + wseed) in
       let noise n = String.init n (fun _ -> background rng) in
       let specs =
         List.mapi (fun i p -> (Fmt.str "r%d" i, p)) patterns
       in
       let buf = Buffer.create 4096 in
       List.iteri
         (fun i p ->
            Buffer.add_string buf (noise 40);
            if i mod 5 = 0 then
              match Alveare_frontend.Parser.parse_result p with
              | Error _ -> ()
              | Ok ast -> (
                  try Buffer.add_string buf (W.Sampler.sample rng ast)
                  with Invalid_argument _ -> ()))
         patterns;
       Buffer.add_string buf (noise 64);
       let input = Buffer.contents buf in
       failures :=
         List.rev_append (check_onepass_case specs input) !failures)
    [ (1, W.Streams.lowercase_text,
       W.Powren.patterns (W.Rng.create (seed + 21)) per_workload);
      (2, W.Streams.protein,
       W.Protomata.patterns (W.Rng.create (seed + 22)) per_workload);
      (3, W.Streams.network,
       W.Snort.patterns (W.Rng.create (seed + 23)) per_workload) ];
  List.rev !failures
