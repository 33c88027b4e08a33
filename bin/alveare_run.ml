(* Run a pattern, a compiled ALVEARE binary, or a whole ruleset over
   data on the simulated DSA, reporting matches, cycle counts and
   modelled wall-clock time.

     alveare_run 'ab+c' --text 'xxabbbcxx'
     alveare_run --binary pattern.bin --file data.bin --cores 10
     alveare_run '([^A-Z])+' --file input.txt --quiet --stats
     alveare_run --rules rules.txt --file traffic.bin --stats
*)

module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Core = Alveare_arch.Core
module Multicore = Alveare_multicore.Multicore
module Fpga = Alveare_platform.Alveare_fpga
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Prefilter facts for a loaded binary come from the [.pf] sidecar
   alvearec writes next to it. A missing sidecar just means no
   prefiltering; a malformed one is worth a warning (stale or
   truncated) but never fails the run. *)
let load_sidecar path =
  let pf_path = path ^ ".pf" in
  if not (Sys.file_exists pf_path) then None
  else begin
    let ic = open_in_bin pf_path in
    let buf =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Alveare_prefilter.Prefilter.of_bytes (Bytes.of_string buf) with
    | Ok pf -> Some pf
    | Error m ->
      Fmt.epr "alveare_run: ignoring %s: %s@." pf_path m;
      None
  end

let load_program ~verify ~optimize ~lint ~extended pattern binary =
  match pattern, binary with
  | Some p, None ->
    (match
       Compile.compile ~verify
         ~options:{ Alveare_ir.Lower.default_options with optimize }
         ~extended p
     with
     | Ok c ->
       if lint then
         List.iter
           (fun d ->
              Fmt.epr "%a@."
                (Alveare_analysis.Lint.pp_diagnostic_source ~pattern:p)
                d)
           c.Compile.lint;
       Ok (c.Compile.program, Some c, Some c.Compile.prefilter)
     | Error e -> Error (Compile.error_message e))
  | None, Some path ->
    if lint then
      Fmt.epr "alveare_run: --lint needs a PATTERN (binaries carry no \
               source)@.";
    (match Alveare_isa.Binary.read_file ~verify path with
     | Ok prog -> Ok (prog, None, load_sidecar path)
     | Error e -> Error (Alveare_isa.Binary.error_message e))
  | Some _, Some _ -> Error "give either PATTERN or --binary, not both"
  | None, None -> Error "give a PATTERN or --binary FILE"

(* Mini Figure-4 for a user's own pattern and data: every engine's
   modelled time on this input. Needs the AST, so pattern-only.

   Beyond the timing table, the rows are cross-checked against the PCRE
   backtracking oracle. Engines that expose spans (the ALVEARE
   configurations) are compared span by span and a disagreement is
   reported with the first divergent span; the priced baselines expose
   only match counts (and the DFA/Pike-VM-based ones count
   leftmost-longest matches, so a count difference there is a semantics
   note, not necessarily a bug). *)
let pp_span ppf (s : Alveare_engine.Semantics.span) =
  Fmt.pf ppf "%d-%d" s.start s.stop

(* First index where the two span lists disagree, with what each side
   has there ([None] = the list already ended). Equal lists -> [None]. *)
let first_divergence oracle spans =
  let rec go i os es =
    match os, es with
    | [], [] -> None
    | o :: os', e :: es' ->
      if o = e then go (i + 1) os' es' else Some (i, Some o, Some e)
    | o :: _, [] -> Some (i, Some o, None)
    | [], e :: _ -> Some (i, None, Some e)
  in
  go 0 oracle spans

let report_disagreements ~oracle rows =
  let oracle_count = List.length oracle in
  let side = function
    | Some s -> Fmt.str "%a" pp_span s
    | None -> "no match"
  in
  let mismatches =
    List.filter_map
      (fun (name, count, spans, note) ->
         match spans with
         | Some spans ->
           (match first_divergence oracle spans with
            | None -> None
            | Some (i, o, e) ->
              Some
                (Fmt.str
                   "%s: %d match(es) vs oracle's %d; first divergence at \
                    match #%d — oracle %s, engine %s"
                   name (List.length spans) oracle_count i (side o) (side e)))
         | None ->
           if count = oracle_count then None
           else
             Some
               (Fmt.str "%s: %d match(es) vs oracle's %d%s" name count
                  oracle_count note))
      rows
  in
  match mismatches with
  | [] ->
    Fmt.pr "  engines agree with the PCRE oracle (%d matches)@." oracle_count
  | ms ->
    List.iter (fun m -> Fmt.pr "  MISMATCH %s@." m) ms

let compare_engines ast program data =
  let module M = Alveare_platform.Measure in
  let overlap = Multicore.overlap_for_ast ast in
  let x1 = Fpga.run ~cores:1 ~overlap program data in
  let x10 = Fpga.run ~cores:10 ~overlap program data in
  (* third comparand: the derivative engine, host execution — it is a
     semantic oracle, not a priced platform, so it appears in the
     agreement report but not the timing table *)
  let deriv_spans =
    Alveare_derivative.Engine.find_all
      (Alveare_derivative.Engine.of_ast ast) data
  in
  let rows =
    [ ( "RE2 (A53)",
        (Alveare_platform.A53_re2.run ast data).Alveare_platform.A53_re2.run,
        None, " (leftmost-longest count)" )
    ; ( "BF-2 DPU",
        (Alveare_platform.Dpu.run ast data).Alveare_platform.Dpu.run,
        None, " (leftmost-longest count)" )
    ; ( "OBAT (V100)",
        (Alveare_platform.Gpu.run Alveare_platform.Gpu.Obat ast data)
          .Alveare_platform.Gpu.run,
        None, " (leftmost-longest count)" )
    ; ( "ALVEARE x1", x1.Fpga.run,
        Some x1.Fpga.result.Multicore.matches, "" )
    ; ( "ALVEARE x10", x10.Fpga.run,
        Some x10.Fpga.result.Multicore.matches, "" ) ]
  in
  Fmt.pr "@.engine comparison (modelled, this input):@.";
  List.iter
    (fun (name, (r : M.run), _, _) ->
       Fmt.pr "  %-12s %10.3f ms  (%d matches)@." name (r.M.seconds *. 1e3)
         r.M.match_count)
    rows;
  Fmt.pr "  %-12s %10s     (%d matches, host oracle)@." "derivative" "—"
    (List.length deriv_spans);
  let oracle = Alveare_engine.Backtrack.find_all ast data in
  Fmt.pr "@.result agreement:@.";
  report_disagreements ~oracle
    (List.map
       (fun (name, (r : M.run), spans, note) ->
          (name, r.M.match_count, spans, note))
       rows
     @ [ ("derivative", List.length deriv_spans, Some deriv_spans, "") ])

(* Serve a run on the derivative engine (host execution): extended
   patterns the mid-end could not rewrite for the ISA always take this
   path; --engine derivative forces it for any pattern compiled from
   source. No modelled DSA cycles — the engine is the semantic oracle,
   not a priced platform. *)
let run_derivative eng data ~quiet ~compare =
  let matches = Alveare_derivative.Engine.find_all eng data in
  if not quiet then
    List.iter
      (fun (m : Alveare_engine.Semantics.span) ->
         let shown = min 40 (m.stop - m.start) in
         Fmt.pr "%d-%d: %S%s@." m.start m.stop
           (String.sub data m.start shown)
           (if m.stop - m.start > shown then "..." else ""))
      matches;
  Fmt.pr "%d match(es) in %d bytes on the derivative engine (host \
          execution, %d states interned)@."
    (List.length matches) (String.length data)
    (Alveare_derivative.Engine.state_count eng);
  if compare then
    Fmt.epr "alveare_run: --compare needs an ISA-servable pattern; the \
             derivative engine is the only engine for this one@.";
  0

(* Ruleset mode: one pattern per line (blank lines and # comments
   skipped), tagged by line number; the whole set scans the input in
   one call — through the fused one-pass engine when prefiltered. *)
let run_ruleset rules_path data ~cores ~quiet ~stats_flag ~no_prefilter
    ~extended =
  let specs =
    read_file rules_path
    |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.mapi (fun i p -> (Printf.sprintf "rule%d" (i + 1), p))
  in
  if specs = [] then begin
    Fmt.epr "alveare_run: %s contains no rules@." rules_path;
    1
  end
  else
    match Ruleset.compile ~extended specs with
    | Error errs ->
      List.iter
        (fun (e : Ruleset.compile_error) ->
           Fmt.epr "alveare_run: %s (%S): %s@." e.Ruleset.failed_rule.Ruleset.tag
             e.Ruleset.failed_rule.Ruleset.pattern e.Ruleset.reason)
        errs;
      1
    | Ok rs ->
      let report =
        Ruleset.scan ~cores ~prefilter:(not no_prefilter) rs data
      in
      if not quiet then
        List.iter
          (fun (h : Ruleset.hit) ->
             let s = h.Ruleset.span in
             let shown = min 40 (s.stop - s.start) in
             Fmt.pr "%s %d-%d: %S%s@." h.Ruleset.hit_rule.Ruleset.tag s.start
               s.stop
               (String.sub data s.start shown)
               (if s.stop - s.start > shown then "..." else ""))
          report.Ruleset.hits;
      Fmt.pr
        "%d hit(s) from %d rule(s) in %d bytes on %d core(s)%s@."
        (List.length report.Ruleset.hits)
        (Ruleset.size rs) (String.length data) cores
        (if no_prefilter then "" else " (fused one-pass sweep)");
      Fmt.pr "wall cycles: %d (%.3f ms with dispatch)@."
        report.Ruleset.total_wall_cycles
        (report.Ruleset.seconds *. 1e3);
      if stats_flag then begin
        Fmt.pr "attempts %d, offsets %d (%d pruned), %d rule(s) prefiltered@."
          report.Ruleset.total_attempts report.Ruleset.total_offsets_scanned
          report.Ruleset.total_offsets_pruned report.Ruleset.prefiltered_rules;
        List.iter
          (fun (id, cycles) ->
             match Ruleset.find_rule rs id with
             | Some r ->
               Fmt.pr "  %-8s %10d cycles  %s@." r.Ruleset.tag cycles
                 r.Ruleset.pattern
             | None -> ())
          report.Ruleset.per_rule_cycles
      end;
      0

let run pattern binary rules text file cores quiet stats_flag trace_path
    compare lint no_verify no_prefilter no_opt extended engine =
  let input =
    match text, file with
    | Some t, None -> Ok t
    | None, Some path ->
      (try Ok (read_file path) with Sys_error m -> Error m)
    | Some _, Some _ -> Error "give either --text or --file, not both"
    | None, None -> Error "give --text or --file input"
  in
  match rules with
  | Some rules_path ->
    (match pattern, binary, input with
     | None, None, Ok data ->
       (try
          run_ruleset rules_path data ~cores ~quiet ~stats_flag ~no_prefilter
            ~extended
        with Sys_error m ->
          Fmt.epr "alveare_run: %s@." m;
          1)
     | _, _, Error m ->
       Fmt.epr "alveare_run: %s@." m;
       1
     | _ ->
       Fmt.epr "alveare_run: --rules excludes PATTERN and --binary@.";
       1)
  | None ->
  match
    load_program ~verify:(not no_verify) ~optimize:(not no_opt) ~lint
      ~extended pattern binary, input
  with
  | Error m, _ | _, Error m ->
    Fmt.epr "alveare_run: %s@." m;
    1
  | Ok (_, Some { Compile.backend = Compile.Derivative eng; _ }, _), Ok data ->
    run_derivative eng data ~quiet ~compare
  | Ok (_, Some c, _), Ok data when engine = "derivative" ->
    run_derivative
      (Alveare_derivative.Engine.of_ast c.Compile.ast)
      data ~quiet ~compare
  | Ok (_, None, _), Ok _ when engine = "derivative" ->
    Fmt.epr "alveare_run: --engine derivative needs a PATTERN (binaries \
             carry no AST)@.";
    1
  | Ok (program, compiled, prefilter), Ok data ->
    let ast = Option.map (fun c -> c.Compile.ast) compiled in
    let prefilter = if no_prefilter then None else prefilter in
    (* Compiled patterns carry their plan and overlay family; a loaded
       binary builds both here, unchecked because the loader ran the
       verifier, and the family comes from the same safe-fragment
       analysis the compiler runs, applied to the loaded program. *)
    let plan, dfa =
      match compiled with
      | Some c -> (c.Compile.plan, c.Compile.dfa)
      | None ->
        let plan = Alveare_arch.Plan.of_program_unchecked program in
        ( plan,
          Alveare_arch.Dfa_overlay.family
            ~fragments:(Alveare_analysis.Ambiguity.program_fragments program)
            plan )
    in
    let overlap =
      match ast with
      | Some ast -> Multicore.overlap_for_ast ast
      | None -> Multicore.default_overlap
    in
    (* Tracing runs a dedicated dense single-core pass on the plan path
       (per-core waveforms of a multi-core run would interleave
       meaninglessly, and the overlay table records no cycles). *)
    (match trace_path with
     | None -> ()
     | Some path ->
       let trace = Alveare_arch.Trace.create () in
       ignore (Core.find_all ~trace ~plan program data);
       Alveare_arch.Vcd.write_file path trace;
       Fmt.pr "wrote VCD trace (%d events%s) to %s@."
         (Alveare_arch.Trace.length trace)
         (if Alveare_arch.Trace.truncated trace then ", truncated" else "")
         path);
    let outcome = Fpga.run ~cores ~overlap ?prefilter ~plan ?dfa program data in
    let result = outcome.Fpga.result in
    if not quiet then
      List.iter
        (fun (m : Alveare_engine.Semantics.span) ->
           let shown = min 40 (m.stop - m.start) in
           Fmt.pr "%d-%d: %S%s@." m.start m.stop
             (String.sub data m.start shown)
             (if m.stop - m.start > shown then "..." else ""))
        result.Multicore.matches;
    Fmt.pr "%d match(es) in %d bytes on %d core(s)@."
      (List.length result.Multicore.matches)
      (String.length data) cores;
    Fmt.pr "wall cycles: %d (%.3f ms at 300 MHz, %.3f ms with dispatch)@."
      outcome.Fpga.wall_cycles
      (float_of_int outcome.Fpga.wall_cycles
       /. Alveare_platform.Calibration.alveare_clock_hz *. 1e3)
      (outcome.Fpga.run.Alveare_platform.Measure.seconds *. 1e3);
    (match compare, ast with
     | true, Some ast -> compare_engines ast program data
     | true, None ->
       Fmt.epr "alveare_run: --compare needs a PATTERN (baselines need the AST)@."
     | false, _ -> ());
    if stats_flag then begin
      Array.iteri
        (fun k (c : Multicore.core_result) ->
           let s = c.Multicore.stats in
           Fmt.pr
             "core %d [%d,%d): cycles %d, instr %d, rollbacks %d, attempts \
              %d, offsets %d (%d pruned), max stack %d, matches %d@."
             k c.Multicore.slice_start c.Multicore.slice_stop s.Core.cycles
             s.Core.instructions s.Core.rollbacks s.Core.attempts
             s.Core.offsets_scanned s.Core.offsets_pruned
             s.Core.max_stack_depth (List.length c.Multicore.owned))
        result.Multicore.per_core;
      if cores > 1 then
        Fmt.pr "stitch: %d host re-attempt(s), charged to no core@."
          result.Multicore.stitch_attempts
    end;
    0

let pattern_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"PATTERN" ~doc:"Regular expression to compile and run.")

let binary_arg =
  Arg.(value & opt (some string) None
       & info [ "binary" ] ~docv:"FILE" ~doc:"Run a compiled ALVEARE binary.")

let rules_arg =
  Arg.(value & opt (some string) None
       & info [ "rules" ] ~docv:"FILE"
           ~doc:"Scan a whole ruleset: one pattern per line (blank lines \
                 and # comments skipped), every rule over the input in one \
                 call. Prefiltered scans run the fused one-pass engine (one \
                 shared sweep for the whole set, at any core count).")

let text_arg =
  Arg.(value & opt (some string) None
       & info [ "text" ] ~docv:"STRING" ~doc:"Inline input data.")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file" ] ~docv:"FILE" ~doc:"Input data file.")

(* Core counts the modelled FPGA holds; any other value is a usage
   error, in single-pattern and ruleset mode alike. *)
let cores_arg =
  let max_cores = Alveare_platform.Area.max_cores () in
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 && k <= max_cores -> Ok k
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a core count in 1..%d" max_cores))
  in
  Arg.(value & opt (conv ~docv:"N" (parse, Format.pp_print_int)) 1
       & info [ "cores" ] ~docv:"N"
           ~doc:(Printf.sprintf "Core count, 1..%d (the paper's FPGA limit)."
                   max_cores))

let quiet_flag =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Do not list matches.")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Per-core statistics.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE.vcd"
           ~doc:"Dump a single-core cycle trace as a VCD waveform: one \
                 event per modelled cycle of a dense scan on the plan \
                 executor (no prefilter, no lazy-DFA overlay), recorded \
                 alongside the normal run.")

let compare_flag =
  Arg.(value & flag
       & info [ "compare" ]
           ~doc:"Print every engine's modelled time on this input (a                  mini Figure 4 for your own pattern).")

let lint_flag =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Print lint diagnostics for the PATTERN before running.")

let no_verify_flag =
  Arg.(value & flag
       & info [ "no-verify" ]
           ~doc:"Skip the verifier's graph checks (dead code, \
                 zero-advance loops) on the compiled or loaded program. \
                 Its structural checks (instruction fields, EoR, jump \
                 targets, open/close balance and kinds) always run.")

let no_prefilter_flag =
  Arg.(value & flag
       & info [ "no-prefilter" ]
           ~doc:"Disable the start-of-match prefilter (first-byte-set \
                 skip loop); every offset is attempted. Matches are \
                 identical either way — this flag only affects \
                 attempts/cycles, for ablation runs.")

let no_opt_flag =
  Arg.(value & flag
       & info [ "no-opt" ]
           ~doc:"Disable the mid-end rewrite optimiser; the PATTERN is \
                 lowered as written. Matches are identical either way — \
                 useful for ablation against the optimised program.")

let extended_flag =
  Arg.(value & flag
       & info [ "extended" ]
           ~doc:"Parse the extended dialect: intersection (r&s), complement \
                 ((?~r)) and the four lookarounds. Patterns the mid-end \
                 cannot rewrite for the ISA run on the derivative engine \
                 (host execution); none are rejected as unsupported.")

let engine_arg =
  Arg.(value & opt (enum [ ("plan", "plan"); ("derivative", "derivative") ])
         "plan"
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: $(b,plan) (the simulated DSA, default) or \
                 $(b,derivative) (the Brzozowski-derivative oracle, host \
                 execution — worst-case linear per start position, \
                 identical spans).")

let cmd =
  Cmd.v
    (Cmd.info "alveare_run" ~version:"1.0"
       ~doc:"Match a pattern over data on the simulated ALVEARE DSA."
       ~man:
         [ `S Manpage.s_description;
           `P "Scans run on the pre-decoded plan executor. Attempts that \
               stay inside a pattern's backtracking-free fragments run on \
               the lazy-DFA overlay (one table lookup per byte) whenever \
               it can engage; matches, cycles and statistics are those of \
               the plan executor either way." ])
    Term.(
      const run $ pattern_arg $ binary_arg $ rules_arg $ text_arg $ file_arg
      $ cores_arg $ quiet_flag $ stats_flag $ trace_arg $ compare_flag
      $ lint_flag $ no_verify_flag $ no_prefilter_flag $ no_opt_flag
      $ extended_flag $ engine_arg)

let () = exit (Cmd.eval' cmd)
