(* Microarchitecture simulator tests: PCRE-order semantics against the
   backtracking oracle (fixed cases + differential properties), cycle
   accounting sanity, speculation-stack behaviour, and failure injection
   (stack overflow, malformed execution). *)

module I = Alveare_isa.Instruction
module Core = Alveare_arch.Core
module Compile = Alveare_compiler.Compile
module Backtrack = Alveare_engine.Backtrack
module S = Alveare_engine.Semantics
module Desugar = Alveare_frontend.Desugar
module Gen_ast = Alveare_test_support.Gen_ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile pat = Compile.compile_exn pat

let sim_all pat input = Core.find_all (compile pat).Compile.program input

let oracle_all pat input = Backtrack.find_all (Desugar.pattern_exn pat) input

let agree pat input =
  let sim = sim_all pat input and oracle = oracle_all pat input in
  if sim <> oracle then
    Alcotest.failf "%s on %S: sim %s, oracle %s" pat input
      (Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) sim)
      (Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) oracle)

(* --- Semantics against the oracle, fixed corpus ----------------------- *)

let semantics_corpus =
  [ ("a", "xayaz");
    ("abc", "zzabcz");
    ("abcdefgh", "xxabcdefghxx");          (* multi-instruction AND *)
    ("a*a", "aaa");                         (* greedy give-back *)
    ("a*?a", "aaa");                        (* lazy *)
    ("a+b", "aaab aab b");
    ("(ab|a)b", "ab abb");                  (* backtrack into alternation *)
    ("(a|ab)c", "abc");                     (* first-match order *)
    ("a{2,4}", "aaaaaa");
    ("a{2,4}?", "aaaaaa");
    ("(ab){2,3}x", "abababx ababx abx");
    ("[a-c]+x", "abcax cbx zx");
    ("[^a]+", "aaabbbccc");
    ("(x*)*y", "xxxy");                     (* nullable loop *)
    ("(a?){3}b", "ab aab b");               (* nullable mandatory part *)
    ("x|", "zx");                           (* empty alternative *)
    ("(ab*c|a[bc]{1,2})d", "zabbcd abcd acd");
    (".{2,5}", "ab\ncdefgh");
    ("colou?r", "color colour colr");
    ("(0|1|2){3}", "012 21 102");
    ("a(b|c)*d", "abcbcbcd ad abd");
    ("a(bc)+?d", "abcbcd");
    ("\\d+\\.\\d+", "v=12.5, x=3.");
    ("(ab|cd|ef)+", "abcdefab");
    ("[acegi]{2}", "aceg zz ai");           (* chained OR class *)
    ("(a|b)+?c", "ababc");
    ("z?z?z?y", "zzy");
    ("((ab)+|cd)?e", "ababe cde e");
    ("a{62}", String.make 80 'a');          (* counter at the field limit *)
    ("a{65}", String.make 80 'a');          (* split counters *)
    ("a{0,70}b", String.make 65 'a' ^ "b") ]

let test_semantics_corpus () =
  List.iter (fun (pat, input) -> agree pat input) semantics_corpus

(* Lazy/greedy spans differ exactly as PCRE prescribes. *)
let test_lazy_greedy_spans () =
  let first pat input =
    match Core.search (compile pat).Compile.program input with
    | Some s -> (s.S.start, s.S.stop)
    | None -> (-1, -1)
  in
  check "greedy takes longest" true (first "a{1,3}" "aaa" = (0, 3));
  check "lazy takes shortest" true (first "a{1,3}?" "aaa" = (0, 1));
  check "lazy grows under pressure" true (first "a{1,3}?b" "aaab" = (0, 4));
  check "greedy shrinks under pressure" true (first "a{1,3}b" "aab" = (0, 3))

(* --- Cycle accounting --------------------------------------------------- *)

let test_cycle_accounting () =
  let c = compile "abcd" in
  let stats = Core.fresh_stats () in
  let input = String.make 4096 'z' ^ "abcd" in
  ignore (Core.find_all ~stats c.Compile.program input);
  check "cycles = instr + rollbacks + scan" true
    (stats.Core.cycles
     = stats.Core.instructions + stats.Core.rollbacks + stats.Core.scan_cycles);
  (* the 4096 rejected offsets cost about 4096/4 prefilter cycles *)
  check "vector prefilter prunes 4 offsets/cycle" true
    (stats.Core.scan_cycles >= 4096 / 4
     && stats.Core.scan_cycles <= (4096 / 4) + 16);
  check_int "one match" 1 stats.Core.match_count;
  (* a pure literal match executes 2 instructions (AND, EoR) *)
  check "few instructions" true (stats.Core.instructions <= 4)

let test_prefilter_requires_base_lead () =
  (* patterns starting with OPEN cannot be prefiltered: every offset
     starts an attempt *)
  let c = compile "(ab)+" in
  let stats = Core.fresh_stats () in
  ignore (Core.find_all ~stats c.Compile.program (String.make 256 'z'));
  check_int "no scan cycles" 0 stats.Core.scan_cycles;
  check "attempt per offset" true (stats.Core.attempts >= 256)

let test_stack_stats () =
  let c = compile "a*b" in
  let stats = Core.fresh_stats () in
  ignore (Core.find_all ~stats c.Compile.program "aaaaab");
  check "pushes happened" true (stats.Core.stack_pushes > 0);
  check "depth tracked" true (stats.Core.max_stack_depth > 0)

(* --- Candidate sources ---------------------------------------------------- *)

(* [Core.candidate_source], applied to an offset, is the next offset a
   scan attempts. The dense source skips to the next byte that can
   start the leading literal, or to the end of input when none is left;
   the first-set prefilter and an explicit array answer past the end of
   input when none is left. *)
let test_candidate_source () =
  let c = compile "ab" in
  let input = "xxabxab" in
  let n = String.length input in
  let plan = c.Compile.plan in
  let dense = Core.candidate_source plan input in
  check "dense" true (List.map dense [ 0; 2; 3; 6; 7 ] = [ 2; 2; 5; 7; 7 ]);
  let first_set = Core.candidate_source ~prefilter:c.Compile.prefilter plan input in
  check "first-set" true (List.map first_set [ 0; 3 ] = [ 2; 5 ]);
  check "first-set, none left" true (first_set 6 > n);
  let listed = Core.candidate_source ~candidates:[| 2; 5; 9 |] plan input in
  check "candidates" true (List.map listed [ 0; 3; 5; 6 ] = [ 2; 5; 5; 9 ]);
  check "candidates, none left" true (listed 10 > n)

(* --- Failure injection ---------------------------------------------------- *)

let test_stack_overflow () =
  let c = compile "a*b" in
  let config = { Core.default_config with Core.stack_capacity = Some 3 } in
  match Core.find_all ~config c.Compile.program "aaaaaaaaab" with
  | _ -> Alcotest.fail "expected stack overflow"
  | exception Core.Exec_error (Core.Stack_overflow 3) -> ()

let test_stack_capacity_sufficient () =
  let c = compile "a*b" in
  let config = { Core.default_config with Core.stack_capacity = Some 64 } in
  check "works within capacity" true
    (Core.find_all ~config c.Compile.program "aaab" = [ { S.start = 0; stop = 4 } ])

let test_malformed_execution () =
  (* Balanced but mismatched: an alternation-style open closed by a
     quantifier close. [Plan.of_program] refuses it; lowered unchecked,
     the executor aborts on the close. *)
  let open_alt =
    I.open_sub
      { I.min_enabled = false; max_enabled = false; bwd_enabled = false;
        fwd_enabled = true; lazy_mode = false; min_count = 0; max_count = 0;
        bwd = 0; fwd = 2 }
  in
  let program = [| open_alt; I.close I.Quant_greedy; I.eor |] in
  (match Core.match_at program "abc" 0 with
   | _ -> Alcotest.fail "expected Plan.of_program to refuse the program"
   | exception Invalid_argument _ -> ());
  let plan = Alveare_arch.Plan.of_program_unchecked program in
  match Core.match_at ~plan program "abc" 0 with
  | _ -> Alcotest.fail "expected malformed-execution error"
  | exception Core.Exec_error (Core.Malformed _) -> ()

let test_invalid_program_rejected () =
  match Core.find_all [| I.base I.And "a" |] "aaa" with
  | _ -> Alcotest.fail "expected validation failure"
  | exception Invalid_argument _ -> ()

(* --- Binary-loaded execution ---------------------------------------------- *)

let test_run_from_binary () =
  let c = compile "(ab|cd)+" in
  let buf = Result.get_ok (Compile.to_binary c) in
  let p = Result.get_ok (Alveare_isa.Binary.of_bytes buf) in
  check "binary program matches like source" true
    (Core.find_all p "xxabcdxx" = sim_all "(ab|cd)+" "xxabcdxx")

(* --- Differential properties ---------------------------------------------- *)

let diff_sim_oracle =
  QCheck2.Test.make ~name:"simulator = oracle (find_all)" ~count:600
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let ast = Desugar.normalize ast in
      let input = Gen_ast.cap_exponential ast input in
      match Compile.compile_ast ast with
      | Error _ -> QCheck2.assume_fail ()
      | Ok c ->
        Core.find_all c.Compile.program input = Backtrack.find_all ast input)

let diff_sim_oracle_minimal =
  QCheck2.Test.make ~name:"minimal-mode simulator = oracle (existence)"
    ~count:300 ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let ast = Desugar.normalize ast in
      let input = Gen_ast.cap_exponential ast input in
      match Compile.compile_ast ~options:Alveare_ir.Lower.minimal_options ast with
      | Error _ -> QCheck2.assume_fail ()
      | Ok c ->
        (* minimal mode reorders backtracking priorities through run
           unfolding, so exact spans can differ; language membership and
           leftmost start must agree *)
        (match
           Core.search c.Compile.program input, Backtrack.search ast input
         with
         | None, None -> true
         | Some a, Some b -> a.S.start = b.S.start
         | Some _, None | None, Some _ -> false))

let () =
  Alcotest.run "arch"
    [ ( "semantics",
        [ Alcotest.test_case "corpus vs oracle" `Quick test_semantics_corpus;
          Alcotest.test_case "lazy vs greedy spans" `Quick
            test_lazy_greedy_spans ] );
      ( "cycles",
        [ Alcotest.test_case "accounting identity" `Quick test_cycle_accounting;
          Alcotest.test_case "prefilter lead" `Quick
            test_prefilter_requires_base_lead;
          Alcotest.test_case "stack stats" `Quick test_stack_stats ] );
      ( "candidate sources",
        [ Alcotest.test_case "next offset" `Quick test_candidate_source ] );
      ( "failure injection",
        [ Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "capacity sufficient" `Quick
            test_stack_capacity_sufficient;
          Alcotest.test_case "malformed execution" `Quick
            test_malformed_execution;
          Alcotest.test_case "invalid program" `Quick
            test_invalid_program_rejected ] );
      ( "binary",
        [ Alcotest.test_case "run from binary" `Quick test_run_from_binary ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ diff_sim_oracle; diff_sim_oracle_minimal ] ) ]
