(* Stage replays for the traced run: the compile driver and the ruleset
   scan re-done call by call through the layers' public functions, with
   a span around each call. Each replay mirrors one library entry point
   ([Ruleset.compile], [Ruleset.scan]) step for step and returns the same
   result, so the caller can check both that the replay still computes
   what the library computes and that its stage times add up to the
   library call's time. *)

module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Combined = Alveare_compiler.Combined
module Ast = Alveare_frontend.Ast
module Parser = Alveare_frontend.Parser
module Spanned = Alveare_frontend.Spanned
module Desugar = Alveare_frontend.Desugar
module Lower = Alveare_ir.Lower
module Opt = Alveare_ir.Opt
module Elim = Alveare_ir.Elim
module Ir = Alveare_ir.Ir
module Emit = Alveare_backend.Emit
module Verify = Alveare_isa.Verify
module Plan = Alveare_arch.Plan
module Core = Alveare_arch.Core
module Dfa = Alveare_arch.Dfa_overlay
module Lint = Alveare_analysis.Lint
module Ambiguity = Alveare_analysis.Ambiguity
module Prefilter = Alveare_prefilter.Prefilter
module Ac = Alveare_prefilter.Ac
module Multicore = Alveare_multicore.Multicore
module Deriv = Alveare_derivative.Engine
module Semantics = Alveare_engine.Semantics

let sp = Span.run

(* The plain ISA pipeline of [Compile.compile], optimiser guard
   included: both ASTs are lowered and the smaller program wins. *)
let plain ~pattern ~lint ~analysis ~backend ast : Compile.compiled =
  let options = Lower.default_options in
  let lower_raw = Lower.lower ~options:{ options with Lower.optimize = false } in
  let opt_ast = sp "ir.opt" (fun () -> Opt.optimize ast) in
  let ast, ir =
    sp "ir.lower" (fun () ->
        let opt_ir = lower_raw opt_ast in
        if Ast.equal opt_ast ast then (ast, opt_ir)
        else begin
          let raw_ir = lower_raw ast in
          if Ir.instruction_count opt_ir <= Ir.instruction_count raw_ir then
            (opt_ast, opt_ir)
          else (ast, raw_ir)
        end)
  in
  let prefilter = sp "prefilter.analyze" (fun () -> Prefilter.analyze ast) in
  let program =
    match sp "backend.emit" (fun () -> Emit.program_of_ir ir) with
    | Ok p -> p
    | Error e -> failwith (Emit.error_message e)
  in
  (match sp "isa.verify" (fun () -> Verify.run program) with
   | Ok _ -> ()
   | Error _ -> failwith ("replay: verifier rejected " ^ pattern));
  let plan = sp "arch.plan_build" (fun () -> Plan.of_program_unchecked program) in
  let safe_fragments =
    sp "analysis.fragments" (fun () -> Ambiguity.program_fragments program)
  in
  let dfa =
    sp "arch.dfa_family" (fun () -> Dfa.family ~fragments:safe_fragments plan)
  in
  { Compile.pattern; ast; ir; program; plan; options; lint; analysis;
    safe_fragments; dfa; prefilter; backend }

(* An extended pattern left to the derivative engine: the engine plus
   the placeholder ISA compilation of the empty pattern. *)
let derivative ~pattern ~lint ~analysis ast : Compile.compiled =
  let engine = sp "derivative.build" (fun () -> Deriv.of_ast ast) in
  let c = plain ~pattern ~lint ~analysis ~backend:Compile.Isa Ast.Empty in
  { c with
    Compile.ast;
    backend = Compile.Derivative engine;
    prefilter = sp "prefilter.analyze" (fun () -> Prefilter.analyze ast) }

(* [Compile.compile]. Returns the compilation and the parsed source,
   which the caller feeds to the standalone ambiguity probe. *)
let compile ~extended pattern =
  let spanned =
    match
      sp "frontend.parse" (fun () -> Parser.parse_spanned_result ~extended pattern)
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let lint, analysis = sp "analysis.lint" (fun () -> Lint.full spanned) in
  let ast =
    sp "frontend.normalize" (fun () -> Desugar.normalize (Spanned.strip spanned))
  in
  let c =
    if not (Ast.has_extended ast) then
      plain ~pattern ~lint ~analysis ~backend:Compile.Isa ast
    else
      match sp "ir.elim" (fun () -> Elim.plainify ast) with
      | Elim.Plain p ->
        plain ~pattern ~lint ~analysis ~backend:Compile.Isa_lowered p
      | Elim.Extended s -> derivative ~pattern ~lint ~analysis s
      | Elim.Dead -> derivative ~pattern ~lint ~analysis ast
  in
  (c, spanned)

(* [Ruleset.compile] with a fresh cache: repeated patterns compile once.
   The literal index is built exactly as the ruleset builds it. *)
let ruleset_compile ~extended (specs : (string * string) list) =
  let parsed = ref [] in
  let rules, fused =
    sp "compiler.ruleset_compile" (fun () ->
        let memo = Hashtbl.create 64 in
        let rules =
          Array.of_list
            (List.mapi
               (fun id (tag, pattern) ->
                  let compiled =
                    match Hashtbl.find_opt memo pattern with
                    | Some c -> c
                    | None ->
                      let c, spanned = compile ~extended pattern in
                      Hashtbl.add memo pattern c;
                      parsed := spanned :: !parsed;
                      c
                  in
                  let overlap =
                    sp "compiler.overlap" (fun () ->
                        Multicore.overlap_for_ast compiled.Compile.ast)
                  in
                  { Ruleset.rule = { Ruleset.id; tag; pattern }; compiled; overlap })
               specs)
        in
        let ac =
          sp "prefilter.ac_build" (fun () ->
              let lits = ref [] and refs = ref [] in
              let covered =
                Array.mapi
                  (fun i (r : Ruleset.compiled_rule) ->
                     match
                       Prefilter.usable_literals r.Ruleset.compiled.Compile.prefilter
                     with
                     | Some l when l.Prefilter.lits <> [] ->
                       List.iter
                         (fun s ->
                            lits := s :: !lits;
                            refs := (i, l.Prefilter.offset) :: !refs)
                         l.Prefilter.lits;
                       true
                     | Some _ | None -> false)
                  rules
              in
              if !lits = [] then None
              else
                Some
                  ( Ac.build (List.rev !lits),
                    Array.of_list (List.rev !refs),
                    covered ))
        in
        let fused =
          sp "compiler.combined_build" (fun () ->
              Combined.build
                ~rules:(Array.map (fun r -> r.Ruleset.compiled) rules)
                ~ac)
        in
        (rules, fused))
  in
  (* not part of the compile: [Lint.full] already ran the analysis; this
     probe times it alone so its share of lint can be reported *)
  List.iter
    (fun s -> ignore (sp "analysis.ambiguity_probe" (fun () -> Ambiguity.analyze s)))
    !parsed;
  (rules, fused)

(* [Ruleset.scan] at its defaults (one core, prefilter, overlay, fused
   sweep): the sweep, then each rule's post-sweep call by outcome.
   Returns the tagged hits in report order. *)
let ruleset_scan (rs : Ruleset.t) input : Inputs.hits =
  sp "compiler.ruleset_scan" (fun () ->
      let outcomes =
        sp "compiler.sweep" (fun () -> Combined.scan rs.Ruleset.fused input)
      in
      let per_rule =
        Array.mapi
          (fun i (r : Ruleset.compiled_rule) ->
             let c = r.Ruleset.compiled in
             let spans =
               match c.Compile.backend with
               | Compile.Derivative eng ->
                 sp "derivative.scan" (fun () -> Deriv.find_all eng input)
               | Compile.Isa | Compile.Isa_lowered ->
                 (match outcomes.(i) with
                  | Combined.Scanned (_, spans) -> spans
                  | Combined.Candidates candidates ->
                    sp "arch.candidate" (fun () ->
                        Core.find_all_candidates ~stats:(Core.fresh_stats ())
                          ~candidates ~plan:c.Compile.plan ?dfa:c.Compile.dfa
                          c.Compile.program input)
                  | Combined.Residual ->
                    sp "arch.residual" (fun () ->
                        (Multicore.run ~prefilter:c.Compile.prefilter
                           ~plan:c.Compile.plan ?dfa:c.Compile.dfa
                           ~config:
                             (Multicore.config ~cores:1 ~overlap:r.Ruleset.overlap
                                ())
                           c.Compile.program input)
                          .Multicore.matches))
             in
             Inputs.spans_of r.Ruleset.rule.Ruleset.id spans)
          rs.Ruleset.rules
      in
      List.concat (Array.to_list per_rule))

(* Stage names of the compile replay, in pipeline order. *)
let compile_stages =
  [ "frontend.parse"; "analysis.lint"; "frontend.normalize"; "ir.elim";
    "ir.opt"; "ir.lower"; "prefilter.analyze"; "backend.emit"; "isa.verify";
    "arch.plan_build"; "analysis.fragments"; "arch.dfa_family";
    "derivative.build"; "compiler.overlap"; "prefilter.ac_build";
    "compiler.combined_build" ]

let scan_stages =
  [ "compiler.sweep"; "arch.candidate"; "arch.residual"; "derivative.scan" ]
