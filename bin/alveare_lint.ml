(* Static-analysis front door: classify patterns with the precise
   ambiguity analysis (witness-backed ReDoS verdicts), report the
   advisory lint heuristics, and verify compiled binaries with the ISA
   verifier.

     alveare_lint '(a+)+b'
     alveare_lint --json 'a*a*c' '(a|ab)c'
     alveare_lint --patterns rules.txt
     alveare_lint --binary pattern.bin --report

   Exit status (worst over all inputs):
     0  every pattern linear, no warning-severity diagnostics
     1  advisory warnings only (compile-size blowup) or a binary the
        verifier rejects — nothing proven super-linear
     2  at least one pattern with proven polynomial backtracking
     3  at least one pattern with proven exponential backtracking
     4  a pattern failed to parse or a binary could not be read or
        decoded *)

module Lint = Alveare_analysis.Lint
module Ambiguity = Alveare_analysis.Ambiguity
module Binary = Alveare_isa.Binary
module Verify = Alveare_isa.Verify
open Cmdliner

type outcome = Clean | Advisory | Poly | Expo | Fail

let rank = function Clean -> 0 | Advisory -> 1 | Poly -> 2 | Expo -> 3 | Fail -> 4
let worst a b = if rank a >= rank b then a else b

let outcome_of_analysis (ds : Lint.diagnostic list) (a : Ambiguity.t) =
  match a.Ambiguity.verdict with
  | Ambiguity.Exponential -> Expo
  | Ambiguity.Polynomial _ -> Poly
  | Ambiguity.Linear -> if Lint.has_warnings ds then Advisory else Clean

(* --- JSON rendering ----------------------------------------------------- *)

(* Hand-rolled emitter: the repo carries no JSON dependency and the
   shapes here are small and fixed. *)
let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_fields b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, emit) ->
       if i > 0 then Buffer.add_char b ',';
       json_string b k;
       Buffer.add_char b ':';
       emit b)
    fields;
  Buffer.add_char b '}'

let jstr s b = json_string b s
let jint (n : int) b = Buffer.add_string b (string_of_int n)
let jbool v b = Buffer.add_string b (if v then "true" else "false")
let jnull b = Buffer.add_string b "null"

let jlist emit xs b =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
       if i > 0 then Buffer.add_char b ',';
       emit x b)
    xs;
  Buffer.add_char b ']'

let jdiag (d : Lint.diagnostic) b =
  json_fields b
    [ ("kind", jstr (Lint.kind_name d.Lint.kind));
      ("severity", jstr (Lint.severity_name d.Lint.severity));
      ("span", jlist jint [ d.Lint.left; d.Lint.right ]);
      ("message", jstr d.Lint.message) ]

let jwitness (w : Ambiguity.witness) b =
  json_fields b
    [ ("prefix", jstr w.Ambiguity.prefix);
      ("pump", jstr w.Ambiguity.pump);
      ("suffix", jstr w.Ambiguity.suffix);
      ("pump_span", jlist jint [ w.Ambiguity.pump_left; w.Ambiguity.pump_right ]);
      ("attack_sample", jstr (Ambiguity.attack_string ~pumps:8 w)) ]

let janalysis p (ds : Lint.diagnostic list) (a : Ambiguity.t) b =
  let degree =
    match a.Ambiguity.verdict with
    | Ambiguity.Polynomial d -> Some d
    | _ -> None
  in
  json_fields b
    [ ("pattern", jstr p);
      ("verdict", jstr (Ambiguity.verdict_name a.Ambiguity.verdict));
      ("degree", (match degree with Some d -> jint d | None -> jnull));
      ("eda", jbool a.Ambiguity.eda);
      ("ida_degree", jint a.Ambiguity.ida_degree);
      ("states", jint a.Ambiguity.states);
      ("budget_hit", jbool a.Ambiguity.budget_hit);
      ("witness",
       (match a.Ambiguity.witness with Some w -> jwitness w | None -> jnull));
      ("diagnostics", jlist jdiag ds);
      ("notes", jlist jstr a.Ambiguity.notes) ]

let jerror p msg b =
  json_fields b [ ("pattern", jstr p); ("error", jstr msg) ]

(* --- Pattern linting ---------------------------------------------------- *)

let lint_pattern ~text quiet p =
  match Lint.pattern_full p with
  | Error e ->
    Fmt.epr "alveare_lint: %S: %s@." p e;
    (Fail, fun b -> jerror p e b)
  | Ok (ds, a) ->
    let outcome = outcome_of_analysis ds a in
    if text then begin
      (match outcome with
       | Clean ->
         if not quiet then begin
           if ds = [] then Fmt.pr "%S: clean@." p
           else Fmt.pr "%S: linear@." p
         end
       | _ -> Fmt.pr "%S: %a@." p Ambiguity.pp_verdict a.Ambiguity.verdict);
      if not (quiet && outcome = Clean) then
        List.iter
          (fun d ->
             Fmt.pr "%a@." (Lint.pp_diagnostic_source ~pattern:p) d)
          ds
    end;
    (outcome, fun b -> janalysis p ds a b)

(* The load runs the verifier's structural phase and [Verify.run] the
   whole verifier; a violation from either is a rejection, listed in
   full, and only a file that cannot be read or decoded fails. *)
let verify_binary quiet report path =
  let rejected vs =
    Fmt.pr "%s: REJECTED@." path;
    List.iter (fun v -> Fmt.pr "  %a@." Verify.pp_violation v) vs;
    Advisory
  in
  match Binary.read_file ~verify:false path with
  | Error (Binary.Verify_error vs) -> rejected vs
  | Error e ->
    Fmt.epr "alveare_lint: %s: %s@." path (Binary.error_message e);
    Fail
  | Ok program ->
    (match Verify.run program with
     | Error vs -> rejected vs
     | Ok r ->
       if not quiet then Fmt.pr "%s: verified OK@." path;
       if report then Fmt.pr "%a" Verify.pp_report r;
       Clean)

let patterns_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let rec go acc =
         match input_line ic with
         | line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then go acc else go (line :: acc)
         | exception End_of_file -> List.rev acc
       in
       go [])

let main patterns pattern_files binaries quiet json report =
  let file_patterns =
    List.concat_map
      (fun path ->
         try patterns_of_file path
         with Sys_error m ->
           Fmt.epr "alveare_lint: %s@." m;
           exit 4)
      pattern_files
  in
  let all_patterns = patterns @ file_patterns in
  if all_patterns = [] && binaries = [] then begin
    Fmt.epr "alveare_lint: nothing to do (give PATTERNs, --patterns or \
             --binary)@.";
    4
  end
  else begin
    let results =
      List.map (lint_pattern ~text:(not json) quiet) all_patterns
    in
    if json then begin
      let b = Buffer.create 1024 in
      jlist (fun (_, emit) bb -> emit bb) results b;
      print_string (Buffer.contents b);
      print_newline ()
    end;
    let outcome =
      List.fold_left (fun acc (o, _) -> worst acc o) Clean results
    in
    let outcome =
      List.fold_left
        (fun acc path -> worst acc (verify_binary quiet report path))
        outcome binaries
    in
    rank outcome
  end

let patterns_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"PATTERN" ~doc:"Regular expressions to analyse.")

let patterns_file_arg =
  Arg.(value & opt_all string []
       & info [ "patterns" ] ~docv:"FILE"
           ~doc:"Analyse every pattern in FILE (one per line; blank lines \
                 and # comments ignored). Repeatable.")

let binary_arg =
  Arg.(value & opt_all string []
       & info [ "binary" ] ~docv:"FILE"
           ~doc:"Run the ISA verifier over a compiled ALVEARE binary. \
                 Repeatable.")

let quiet_flag =
  Arg.(value & flag
       & info [ "quiet"; "q" ] ~doc:"Only print findings, not clean results.")

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit one JSON array with a record per pattern (verdict, \
                 polynomial degree, ambiguity facts, validated attack \
                 witness with pump byte-span, diagnostics) instead of the \
                 human-readable report. Exit codes are unchanged.")

let report_flag =
  Arg.(value & flag
       & info [ "report" ]
           ~doc:"Print the verifier report (reachability, CFG size, \
                 speculation-stack bound) for each accepted binary.")

let cmd =
  Cmd.v
    (Cmd.info "alveare_lint" ~version:"1.0"
       ~doc:"Classify regular expressions by worst-case backtracking cost \
             and verify ALVEARE binaries."
       ~man:
         [ `S Manpage.s_description;
           `P "Level-2 static analysis for patterns — the precise \
               ambiguity analysis proves each pattern linear, polynomial \
               or exponential on the speculative backtracking core and \
               backs every non-linear verdict with a validated attack \
               witness; the classic ReDoS heuristics ride along as \
               advisory diagnostics — plus level-1 verification for \
               compiled binaries (jump targets, dead code, speculation \
               balance, zero-advance loops).";
           `S "EXIT STATUS";
           `P "0 all patterns linear and free of warning-severity \
               diagnostics; 1 advisory warnings only, or a binary the \
               verifier rejects (every violation is listed); 2 proven \
               polynomial backtracking; 3 proven exponential \
               backtracking; 4 a pattern failed to parse or a binary could \
               not be read or decoded. The worst outcome across all inputs \
               wins." ])
    Term.(
      const main $ patterns_arg $ patterns_file_arg $ binary_arg $ quiet_flag
      $ json_flag $ report_flag)

let () = exit (Cmd.eval' cmd)
