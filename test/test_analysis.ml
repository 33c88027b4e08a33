(* Static-analysis subsystem: ISA verifier over hand-assembled
   adversarial programs (every rejection class), acceptance of
   compiler output, load-time verification in Binary, and the RE lint
   pass with positioned diagnostics. *)

module I = Alveare_isa.Instruction
module Binary = Alveare_isa.Binary
module Verify = Alveare_isa.Verify
module Lint = Alveare_analysis.Lint
module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset

let check = Alcotest.(check bool)

(* --- Adversarial program builders -------------------------------------- *)

let quant ?(qmin = 0) ?(qmax = I.unbounded_max) fwd =
  I.open_sub
    { I.min_enabled = true; max_enabled = true; bwd_enabled = true;
      fwd_enabled = true; lazy_mode = false; min_count = qmin;
      max_count = qmax; bwd = 0; fwd }

let alt ?bwd fwd =
  I.open_sub
    { I.min_enabled = false; max_enabled = false; bwd_enabled = (bwd <> None);
      fwd_enabled = true; lazy_mode = false; min_count = 0; max_count = 0;
      bwd = Option.value bwd ~default:0; fwd }

let violations p =
  match Verify.run p with
  | Ok _ -> []
  | Error vs -> vs

let has p pred = List.exists pred (violations p)

(* --- Rejection classes -------------------------------------------------- *)

let test_bad_jump () =
  (* Forward jump past the end of the image. *)
  let p =
    [| quant ~qmin:1 ~qmax:1 9;
       I.fuse_close (I.base I.And "a") I.Quant_greedy;
       I.eor |]
  in
  check "bad forward jump" true
    (has p (function
       | Verify.Bad_jump { pc = 0; which = "forward"; target = 9; _ } -> true
       | _ -> false));
  (* Backward (rollback) target out of range. *)
  let p =
    [| alt ~bwd:9 1;
       I.fuse_close (I.base I.And "a") I.Alt_close;
       I.eor |]
  in
  check "bad backward jump" true
    (has p (function
       | Verify.Bad_jump { pc = 0; which = "backward"; target = 9; _ } -> true
       | _ -> false))

let test_unreachable () =
  (* The quantifier's exit jumps over pc 2; nothing else reaches it. *)
  let p =
    [| quant ~qmin:1 ~qmax:2 3;
       I.fuse_close (I.base I.And "a") I.Quant_greedy;
       I.base I.And "b";
       I.eor |]
  in
  check "dead code flagged" true
    (has p (function Verify.Unreachable { pc = 2 } -> true | _ -> false));
  check "only pc 2 is dead" true
    (List.for_all
       (function Verify.Unreachable { pc } -> pc = 2 | _ -> true)
       (violations p))

let test_unbalanced_speculation () =
  let p = [| I.base I.And "a"; I.close I.Close; I.eor |] in
  check "close without open" true
    (has p (function Verify.Unbalanced_close { pc = 1 } -> true | _ -> false));
  let p = [| alt 2; I.base I.And "a"; I.eor |] in
  check "open never closed" true
    (has p (function Verify.Unclosed_open { pc = 0 } -> true | _ -> false));
  (* Quantified close against an alternation-member OPEN. *)
  let p =
    [| alt 1; I.fuse_close (I.base I.And "a") I.Quant_greedy; I.eor |]
  in
  check "close kind mismatch" true
    (has p (function
       | Verify.Close_mismatch { open_pc = 0; close_pc = 1; _ } -> true
       | _ -> false))

let test_epsilon_loop () =
  (* Alternation whose rollback edge points at itself: the core could
     re-enter the OPEN without consuming anything. *)
  let p =
    [| alt ~bwd:0 2;
       I.fuse_close (I.base I.And "a") I.Alt_close;
       I.eor |]
  in
  check "alt self-loop" true
    (has p (function Verify.Epsilon_loop _ -> true | _ -> false));
  (* {0,0} quantifier whose skip edge lands back on itself. *)
  let p =
    [| quant ~qmin:0 ~qmax:0 0;
       I.fuse_close (I.base I.And "a") I.Quant_greedy;
       I.eor |]
  in
  check "quant zero-advance loop" true
    (has p (function Verify.Epsilon_loop _ -> true | _ -> false))

(* --- Acceptance of compiler output -------------------------------------- *)

let accept_patterns =
  [ "abc"; "([^A-Z])+"; "(a+)+b"; "(a?)*"; "(ab|cd)+?e"; "[a-z]{3,9}x";
    "x(y|z){2,5}?w"; "a{62}"; "a{100}"; "a|b|c"; "((ab)+|cd)?e"; "" ]

let test_accepts_compiler_output () =
  List.iter
    (fun pat ->
       let c = Compile.compile_exn pat in
       match Verify.run c.Compile.program with
       | Error (v :: _) ->
         Alcotest.failf "%S rejected: %s" pat (Verify.violation_message v)
       | Error [] -> Alcotest.failf "%S rejected with no violations" pat
       | Ok r ->
         check (pat ^ " fully reachable") true (r.Verify.reachable = r.Verify.instructions))
    accept_patterns;
  (* Minimal-mode lowering (unfolded counters) must verify too. *)
  let options =
    { Alveare_ir.Lower.mode = Alveare_ir.Lower.Minimal; alphabet_size = 128;
      optimize = false }
  in
  List.iter
    (fun pat ->
       match Compile.compile ~options ~verify:false pat with
       | Error _ ->
         (* Minimal mode legitimately refuses some shapes (unfolding
            overflows the forward-jump field); only emitted programs
            are in scope here. *)
         ()
       | Ok c ->
         (match Verify.run c.Compile.program with
          | Ok _ -> ()
          | Error (v :: _) ->
            Alcotest.failf "%S (minimal) rejected: %s" pat
              (Verify.violation_message v)
          | Error [] -> Alcotest.failf "%S rejected with no violations" pat))
    accept_patterns

let test_stack_bound () =
  let bound pat =
    (Verify.run_exn (Compile.compile_exn pat).Compile.program).Verify.stack_bound
  in
  Alcotest.(check (option int)) "literal needs no stack" (Some 0) (bound "abc");
  Alcotest.(check (option int)) "{3,9} bounded" (Some 10) (bound "[a-z]{3,9}");
  Alcotest.(check (option int)) "unbounded quant" None (bound "(ab)+")

(* --- Load-time verification in Binary ----------------------------------- *)

let test_binary_verify_gate () =
  (* Structurally valid (jumps in range, balanced) but rejected by the
     verifier: the alt self-loop from above. *)
  let p =
    [| alt ~bwd:0 2;
       I.fuse_close (I.base I.And "a") I.Alt_close;
       I.eor |]
  in
  let image = Binary.to_bytes_exn p in
  (match Binary.of_bytes image with
   | Error (Binary.Verify_error _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Binary.error_message e)
   | Ok _ -> Alcotest.fail "verifier gate did not fire");
  (match Binary.of_bytes ~verify:false image with
   | Ok _ -> ()
   | Error e ->
     Alcotest.failf "opt-out load failed: %s" (Binary.error_message e))

(* [(ab|cd)e] with both alternation OPENs' forward-jump enable bits
   cleared and their targets set to 200: the core reads [fwd] whatever
   the enable bit says, so this must never reach a plan. The same image
   is test/bad_fwd.alv. *)
let disabled_fwd () =
  Array.map
    (fun (i : I.t) ->
       match i.I.reference with
       | I.Ref_open o ->
         let o = { o with I.fwd_enabled = false; fwd = 200 } in
         { i with I.reference = I.Ref_open o }
       | I.Ref_none | I.Ref_chars _ -> i)
    (Compile.compile_exn "(ab|cd)e").Compile.program

let forward_jumps vs =
  List.map
    (function
      | Verify.Bad_jump { pc; which = "forward"; target; _ } -> (pc, target)
      | v ->
        Alcotest.failf "unexpected violation: %s" (Verify.violation_message v))
    vs

let test_disabled_fwd_refused () =
  let p = disabled_fwd () in
  Alcotest.(check (list (pair int int))) "verifier: both forward jumps"
    [ (0, 200); (2, 202) ] (forward_jumps (violations p));
  check "plan refused" true
    (match Alveare_arch.Plan.of_program p with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check "serialiser refused" true
    (match Binary.to_bytes p with
     | Error (Binary.Verify_error _) -> true
     | Ok _ | Error _ -> false);
  (* [to_bytes] refuses it, so encode the image by hand. *)
  let n = Array.length p in
  let image = Bytes.make (Binary.header_size + (Binary.word_size * n)) '\000' in
  Bytes.blit_string Binary.magic 0 image 0 4;
  Bytes.set_uint8 image 4 Binary.version;
  Bytes.set_int32_le image 8 (Int32.of_int n);
  Array.iteri
    (fun k i ->
       Bytes.set_int64_le image (Binary.header_size + (Binary.word_size * k))
         (Int64.of_int (Alveare_isa.Encoding.encode_exn i)))
    p;
  check "unverified load refused" true
    (match Binary.of_bytes ~verify:false image with
     | Error (Binary.Verify_error _) -> true
     | Ok _ | Error _ -> false)

(* The structural phase alone: the violations [run] stops at when the
   structure is broken, and nothing for a program only the graph checks
   reject (the alt self-loop above). *)
let test_structural_phase () =
  let p = disabled_fwd () in
  Alcotest.(check (list (pair int int))) "both forward jumps"
    [ (0, 200); (2, 202) ] (forward_jumps (Verify.structural p));
  check "same as run" true (Verify.structural p = violations p);
  let self_loop =
    [| alt ~bwd:0 2;
       I.fuse_close (I.base I.And "a") I.Alt_close;
       I.eor |]
  in
  check "graph violation is not structural" true
    (Verify.structural self_loop = [] && violations self_loop <> [])

let test_assembler_line_text () =
  let src = "AND 'a'\nBOGUS TOKENS\nEOR" in
  match Alveare_isa.Assembler.parse src with
  | Ok _ -> Alcotest.fail "expected an assembly error"
  | Error e ->
    Alcotest.(check int) "line number" 2 e.Alveare_isa.Assembler.line;
    Alcotest.(check string) "offending text" "BOGUS TOKENS"
      e.Alveare_isa.Assembler.text;
    check "message quotes the line" true
      (let m = Alveare_isa.Assembler.error_message e in
       let needle = "2 | BOGUS TOKENS" in
       let nh = String.length m and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub m i nn = needle || go (i + 1)) in
       go 0)

(* --- Lint ---------------------------------------------------------------- *)

let diags pat =
  match Lint.pattern pat with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "%S failed to parse: %s" pat e

let has_kind ds kind severity =
  List.exists (fun d -> d.Lint.kind = kind && d.Lint.severity = severity) ds

let test_lint_redos_nested () =
  let ds = diags "(a+)+b" in
  (* Heuristics are advisory now: the precise ambiguity analysis owns
     the warning tier (see test_ambiguity.ml for the proven verdicts). *)
  check "nested quantifier advisory" true
    (has_kind ds Lint.Nested_quantifiers Lint.Info);
  (* The diagnostic must point at the offending sub-expression. *)
  let d =
    List.find (fun d -> d.Lint.kind = Lint.Nested_quantifiers) ds
  in
  Alcotest.(check int) "span start" 0 d.Lint.left;
  Alcotest.(check int) "span stop" 5 d.Lint.right;
  Alcotest.(check string) "span text" "(a+)+"
    (String.sub "(a+)+b" d.Lint.left (d.Lint.right - d.Lint.left));
  check "fixed counts stay clean" true (diags "(a{2}){3}" = []);
  check "sequential quantifiers stay clean" true
    (not (has_kind (diags "a+b+") Lint.Nested_quantifiers Lint.Info))

let test_lint_overlap () =
  check "overlap under quantifier is advisory" true
    (has_kind (diags "(a|ab)+c") Lint.Overlapping_alternation Lint.Info);
  check "overlap never warns on its own" false
    (has_kind (diags "(a|ab)+c") Lint.Overlapping_alternation Lint.Warning);
  check "bare overlap is info" true
    (has_kind (diags "(nikto|nmap)") Lint.Overlapping_alternation Lint.Info);
  check "disjoint branches stay clean" true (diags "(ERROR|FATAL|PANIC)" = [])

let test_lint_blowup () =
  check "nested bounded repeat warns" true
    (has_kind (diags "(x{20,40}){20,40}") Lint.Repeat_blowup Lint.Warning);
  check "counter split is info" true
    (has_kind (diags "[a-z]{100}") Lint.Repeat_blowup Lint.Info);
  check "small bounded repeat clean" true (diags "a{2,8}" = [])

let test_lint_empty_body () =
  check "(a?)* flagged" true
    (has_kind (diags "(a?)*") Lint.Empty_quantifier_body Lint.Info);
  check "a? alone is clean" true (diags "a?" = [])

let test_lint_in_compile_and_ruleset () =
  let c = Compile.compile_exn "(a+)+b" in
  check "compile carries lint" true (Lint.has_warnings c.Compile.lint);
  let rs =
    Ruleset.compile_exn [ ("bad", "(a+)+b"); ("good", "abc") ]
  in
  (match Ruleset.lint_report rs with
   | [ (rule, ds) ] ->
     Alcotest.(check string) "suspect rule" "bad" rule.Ruleset.tag;
     check "warning surfaced" true (Lint.has_warnings ds)
   | report ->
     Alcotest.failf "expected exactly one suspect rule, got %d"
       (List.length report))

let () =
  Alcotest.run "analysis"
    [ ( "verifier-rejects",
        [ Alcotest.test_case "bad jumps" `Quick test_bad_jump;
          Alcotest.test_case "unreachable code" `Quick test_unreachable;
          Alcotest.test_case "unbalanced speculation" `Quick
            test_unbalanced_speculation;
          Alcotest.test_case "epsilon loops" `Quick test_epsilon_loop ] );
      ( "verifier-accepts",
        [ Alcotest.test_case "compiler output" `Quick
            test_accepts_compiler_output;
          Alcotest.test_case "stack bounds" `Quick test_stack_bound ] );
      ( "integration",
        [ Alcotest.test_case "binary load gate" `Quick test_binary_verify_gate;
          Alcotest.test_case "disabled forward jumps refused" `Quick
            test_disabled_fwd_refused;
          Alcotest.test_case "structural phase" `Quick test_structural_phase;
          Alcotest.test_case "assembler line text" `Quick
            test_assembler_line_text ] );
      ( "lint",
        [ Alcotest.test_case "nested quantifiers" `Quick test_lint_redos_nested;
          Alcotest.test_case "overlapping alternation" `Quick test_lint_overlap;
          Alcotest.test_case "repeat blowup" `Quick test_lint_blowup;
          Alcotest.test_case "empty quantifier body" `Quick
            test_lint_empty_body;
          Alcotest.test_case "compile and ruleset surface lint" `Quick
            test_lint_in_compile_and_ruleset ] ) ]
