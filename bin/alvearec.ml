(* The ALVEARE compiler driver (paper §5) as a command-line tool.

     alvearec '([^A-Z])+' --disasm
     alvearec '[a-z]+' -o pattern.bin
     alvearec '.{3,6}' --minimal --stats
     alvearec '(ab|cd)+' --words        # 43-bit instruction words as bits
*)

module Compile = Alveare_compiler.Compile
module Lower = Alveare_ir.Lower
open Cmdliner

let compile_and_report pattern minimal alphabet strict no_opt out disasm
    show_ir show_ast stats words lint no_verify =
  let options =
    { Lower.mode = (if minimal then Lower.Minimal else Lower.Advanced);
      alphabet_size = alphabet;
      optimize = (not no_opt) && not minimal }
  in
  match Compile.compile ~options ~verify:(not no_verify) pattern with
  | Error e ->
    Fmt.epr "alvearec: %s@." (Compile.error_message e);
    1
  | Ok c ->
    if lint then
      List.iter
        (fun d ->
           Fmt.epr "%a@."
             (Alveare_analysis.Lint.pp_diagnostic_source ~pattern)
             d)
        c.Compile.lint;
    if show_ast then
      Fmt.pr "AST: %a@." Alveare_frontend.Ast.pp c.Compile.ast;
    if show_ir then Fmt.pr "IR: %a@." Alveare_ir.Ir.pp c.Compile.ir;
    if disasm then Fmt.pr "%s" (Compile.disassemble c);
    if words then
      Array.iteri
        (fun k i ->
           Fmt.pr "%3d: %a@." k Alveare_isa.Encoding.pp_word
             (Alveare_isa.Encoding.encode_exn ~strict i))
        c.Compile.program;
    if stats then begin
      Fmt.pr "%a" Compile.pp_stats (Compile.stats c);
      Fmt.pr "prefilter: %s@."
        (Alveare_prefilter.Prefilter.describe c.Compile.prefilter)
    end;
    (match out with
     | None ->
       if not (disasm || show_ir || show_ast || stats || words) then
         Fmt.pr "compiled: %d instructions (+EoR), %d bytes@."
           (Compile.code_size c)
           (Alveare_isa.Binary.size_of_program c.Compile.program);
       0
     | Some path ->
       (match Alveare_isa.Binary.write_file ~strict path c.Compile.program with
        | Ok buf ->
          Fmt.pr "wrote %s (%d bytes, %d instructions)@." path
            (Bytes.length buf)
            (Alveare_isa.Program.length c.Compile.program);
          (* Prefilter sidecar: binaries carry no AST, so the scan-time
             skip facts ride along in FILE.pf (picked up by
             alveare_run --binary). *)
          let pf_path = path ^ ".pf" in
          let pf = Alveare_prefilter.Prefilter.to_bytes c.Compile.prefilter in
          let oc = open_out_bin pf_path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_bytes oc pf);
          Fmt.pr "wrote %s (%d bytes, %s)@." pf_path (Bytes.length pf)
            (Alveare_prefilter.Prefilter.describe c.Compile.prefilter);
          0
        | Error e ->
          Fmt.epr "alvearec: %s@." (Alveare_isa.Binary.error_message e);
          1))

let pattern_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"PATTERN" ~doc:"The regular expression to compile.")

let minimal_flag =
  Arg.(value & flag
       & info [ "minimal" ]
           ~doc:"Compile with the minimal primitive set (no RANGE/NOT, \
                 unfolded bounded counters) — the paper's Table 2 baseline.")

let alphabet_arg =
  Arg.(value & opt int 128
       & info [ "alphabet" ]
           ~doc:"Alphabet size for minimal-mode class expansion (paper: 128).")

let strict_flag =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Enforce the paper's exact 6-bit forward-jump field \
                 (no reserved-bit extension).")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the binary to FILE.")

let disasm_flag =
  Arg.(value & flag & info [ "disasm" ] ~doc:"Print the disassembly.")

let ir_flag = Arg.(value & flag & info [ "ir" ] ~doc:"Print the IR.")
let ast_flag = Arg.(value & flag & info [ "ast" ] ~doc:"Print the AST.")
let stats_flag = Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics.")

let words_flag =
  Arg.(value & flag
       & info [ "words" ] ~doc:"Print the 43-bit instruction words as bits.")

let no_opt_flag =
  Arg.(value & flag
       & info [ "no-opt" ] ~doc:"Disable the mid-end AST optimiser.")

let lint_flag =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Print lint diagnostics (ReDoS heuristics, repeat blowup) \
                 for the pattern. Advisory: does not fail the compile.")

let no_verify_flag =
  Arg.(value & flag
       & info [ "no-verify" ]
           ~doc:"Skip the post-emission verifier's graph checks (dead \
                 code, zero-advance loops). Its structural checks always \
                 run.")

let cmd =
  Cmd.v
    (Cmd.info "alvearec" ~version:"1.0"
       ~doc:"Compile a regular expression to an ALVEARE binary.")
    Term.(
      const compile_and_report $ pattern_arg $ minimal_flag $ alphabet_arg
      $ strict_flag $ no_opt_flag $ out_arg $ disasm_flag $ ir_flag $ ast_flag
      $ stats_flag $ words_flag $ lint_flag $ no_verify_flag)

let () = exit (Cmd.eval' cmd)
