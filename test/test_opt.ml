(* Mid-end optimiser tests: each rewrite rule, span preservation against
   the oracle (including the historical counterexamples that shaped the
   rules), and code-size improvements. Attached to the @optcheck alias
   (and runtest) together with the optimiser differential corpus. *)

module Opt = Alveare_ir.Opt
module Lower = Alveare_ir.Lower
module Ir = Alveare_ir.Ir
module Compile = Alveare_compiler.Compile
module Backtrack = Alveare_engine.Backtrack
module Core = Alveare_arch.Core
module Desugar = Alveare_frontend.Desugar
module Ast = Alveare_frontend.Ast
module Gen_ast = Alveare_test_support.Gen_ast
module Diff = Alveare_test_support.Differential

let check_int = Alcotest.(check int)

let opt pat = Opt.optimize (Desugar.pattern_exn pat)

let same msg a b =
  if not (Ast.equal a b) then
    Alcotest.failf "%s: got %s, want %s" msg (Fmt.str "%a" Ast.pp a)
      (Fmt.str "%a" Ast.pp b)

(* --- Rules --------------------------------------------------------------- *)

let test_class_fusion () =
  same "a|b|c fuses" (opt "a|b|c") (Desugar.pattern_exn "[abc]");
  same "chars and classes fuse" (opt "a|[0-9]|x") (Desugar.pattern_exn "[a0-9x]");
  (* a|. fuses into the materialised union (everything but newline) *)
  (match opt "a|." with
   | Ast.Class { negated = false; set } ->
     let want =
       Alveare_engine.Semantics.class_set
         Alveare_frontend.Desugar.dot_class
     in
     if not (Alveare_frontend.Charset.equal set want) then
       Alcotest.fail "a|. fused to the wrong set"
   | other -> Alcotest.failf "a|.: %s" (Fmt.str "%a" Ast.pp other));
  (* non-adjacent single chars must NOT fuse across a longer branch;
     (bc|b) factors to b followed by an optional c, which keeps priority *)
  (match opt "a|bc|b" with
   | Ast.Alt
       [ Ast.Char 'a';
         Ast.Concat
           [ Ast.Char 'b';
             Ast.Repeat (Ast.Char 'c', { qmin = 0; qmax = Some 1; greedy = true })
           ] ] -> ()
   | other -> Alcotest.failf "a|bc|b: %s" (Fmt.str "%a" Ast.pp other))

let test_dedup () =
  same "duplicate branch dropped" (opt "ab|cd|ab") (opt "ab|cd");
  (* an empty branch does NOT remove later branches; x| becomes the
     greedy optional x? (same priority: x's ways first, then epsilon) *)
  (match opt "a||b" with
   | Ast.Alt
       [ Ast.Repeat (Ast.Char 'a', { qmin = 0; qmax = Some 1; greedy = true });
         Ast.Char 'b' ] -> ()
   | other -> Alcotest.failf "a||b: %s" (Fmt.str "%a" Ast.pp other))

let test_epsilon_branches () =
  (* |x prefers the empty match: the lazy optional x?? *)
  (match opt "(|x)y" with
   | Ast.Concat
       [ Ast.Repeat (Ast.Char 'x', { qmin = 0; qmax = Some 1; greedy = false });
         Ast.Char 'y' ] -> ()
   | other -> Alcotest.failf "(|x)y: %s" (Fmt.str "%a" Ast.pp other))

let test_prefix_factoring () =
  (* abc|abd -> ab[cd] after factoring + fusion *)
  same "abc|abd" (opt "abc|abd") (Desugar.pattern_exn "ab[cd]");
  (* recursive trie: version families collapse to stem + class *)
  same "php3|php4|php5" (opt "php3|php4|php5") (Desugar.pattern_exn "php[345]");
  (* a backtrackable head must not factor *)
  (match opt "[ab]{1,2}b|[ab]{1,2}c" with
   | Ast.Alt [ _; _ ] -> ()
   | other ->
     Alcotest.failf "backtrackable head factored: %s" (Fmt.str "%a" Ast.pp other))

let test_suffix_factoring () =
  (* shared tails factor out and the residual heads fuse *)
  same "abd|cbd" (opt "abd|cbd") (Desugar.pattern_exn "[ac]bd");
  (* a bare atom is its own tail: ab|b -> a?b *)
  same "ab|b" (opt "ab|b") (opt "a?b");
  (* a non-deterministic shared tail is still safe to factor *)
  (match opt "a[xy]{1,2}|b[xy]{1,2}" with
   | Ast.Concat [ Ast.Class _; Ast.Repeat _ ] -> ()
   | other ->
     Alcotest.failf "a[xy]{1,2}|b[xy]{1,2}: %s" (Fmt.str "%a" Ast.pp other))

let test_dead_branches () =
  (* a branch led by an empty class can never match and is dropped *)
  same "a|[^\\x00-\\xff]b" (opt "a|[^\\x00-\\xff]b") (Ast.Char 'a');
  same "dead middle branch" (opt "a|[^\\x00-\\xff]x|b") (opt "a|b");
  (* an all-dead alternation must NOT become epsilon: one dead branch
     is kept so the program still matches nothing *)
  (match opt "[^\\x00-\\xff]a|[^\\x00-\\xff]b" with
   | Ast.Empty -> Alcotest.fail "all-dead alternation collapsed to epsilon"
   | _ -> ())

let test_repeat_coalescing () =
  (* a char that packs into the literal run before it stays bare: ba+
     would shorten the leading literal from "ba" to "b" *)
  same "baa* left as written" (opt "baa*") (Desugar.pattern_exn "baa*");
  (* at the pattern head the coalesced repeat is peeled back so the
     scanner keeps its leading consuming-instruction filter *)
  same "aa* stays spelled" (opt "aa*") (Desugar.pattern_exn "aa*");
  same "a*a* -> a*" (opt "a*a*") (Desugar.pattern_exn "a*");
  same "x{1,2}x{1,3} -> x{2,5}" (opt "x{1,2}x{1,3}")
    (Desugar.pattern_exn "x{2,5}");
  same "exact + lazy keeps laziness" (opt "x{2}x{0,3}?")
    (Desugar.pattern_exn "x{2,5}?");
  (* different greediness, neither exact: unchanged *)
  (match opt "a*a+?" with
   | Ast.Concat [ Ast.Repeat _; Ast.Repeat _ ] -> ()
   | other -> Alcotest.failf "a*a+?: %s" (Fmt.str "%a" Ast.pp other));
  (* a variable-width atom does not merge: ([^\n]{2,3}){2,} would end
     one byte short on ten a's *)
  let pat = "([^\\n]{2,3})+([^\\n]{2,3})+" in
  (match opt pat with
   | Ast.Concat [ Ast.Repeat _; Ast.Repeat _ ] -> ()
   | other -> Alcotest.failf "%s: %s" pat (Fmt.str "%a" Ast.pp other));
  List.iter
    (fun (what, ast) ->
       match Backtrack.find_all ast (String.make 10 'a') with
       | [ { Alveare_engine.Semantics.start = 0; stop = 10 } ] -> ()
       | spans ->
         Alcotest.failf "%s %s: %d spans, want [0,10)" what pat
           (List.length spans))
    [ ("raw", Desugar.pattern_exn pat); ("optimised", opt pat) ]

let test_nest_fusion () =
  same "(x{2}){3} -> x{6}" (opt "(x{2}){3}") (Desugar.pattern_exn "x{6}");
  (* exact outer over a ranged inner: contiguous totals, fuses *)
  same "(x{1,2}){2} -> x{2,4}" (opt "(x{1,2}){2}") (Desugar.pattern_exn "x{2,4}");
  same "(x{0,2}){2,3} -> x{0,6}" (opt "(x{0,2}){2,3}")
    (Desugar.pattern_exn "x{0,6}");
  same "(x*)* -> x*" (opt "(x*)*") (Desugar.pattern_exn "x*");
  same "(x+)+ -> x+" (opt "(x+)+") (Desugar.pattern_exn "x+");
  same "(x?)* -> x*" (opt "(x?)*") (Desugar.pattern_exn "x*");
  (* gap in the totals: (x{2}){1,4} matches only even counts *)
  (match opt "(x{2}){1,4}" with
   | Ast.Repeat (Ast.Repeat _, _) -> ()
   | other -> Alcotest.failf "(x{2}){1,4}: %s" (Fmt.str "%a" Ast.pp other));
  (* same gap with an unbounded outer: (a{2})+ is even counts only *)
  (match opt "(a{2})+" with
   | Ast.Repeat (Ast.Repeat _, _) -> ()
   | other -> Alcotest.failf "(a{2})+: %s" (Fmt.str "%a" Ast.pp other));
  (* incompatible greediness, neither exact: unchanged *)
  (match opt "(x{1,2}?){1,3}" with
   | Ast.Repeat (Ast.Repeat _, _) -> ()
   | other -> Alcotest.failf "(x{1,2}?){1,3}: %s" (Fmt.str "%a" Ast.pp other));
  (* an exact outer count fuses whatever the inner minimum *)
  same "(x{2,3}){2} -> x{4,6}" (opt "(x{2,3}){2}") (Desugar.pattern_exn "x{4,6}");
  (* an unbounded greedy inner takes every copy it can: no stranding *)
  same "(x{2,})+ -> x{2,}" (opt "(x{2,})+") (Desugar.pattern_exn "x{2,}");
  (* inner minimum >= 2 under a free outer count, bodies of varying
     width: the nest tries totals in another order, unchanged *)
  List.iter
    (fun pat ->
       match opt pat with
       | Ast.Repeat (Ast.Repeat _, _) -> ()
       | other -> Alcotest.failf "%s: %s" pat (Fmt.str "%a" Ast.pp other))
    [ "(b{3,5})+"; "(b{2,3})+"; "([bc]{2,3}?)+?"; "(x{2,}?)+?"; "((b|bc){1,2}){2}" ]

(* A greedy iteration over b{a,b} with a >= 2 can strand fewer than a
   copies and end the loop short: the nest's spans, raw and optimised. *)
let test_nest_stranding () =
  List.iter
    (fun (pat, input, want) ->
       List.iter
         (fun (what, ast) ->
            let got =
              List.map (fun (s : Alveare_engine.Semantics.span) -> (s.start, s.stop))
                (Backtrack.find_all ast input)
            in
            if got <> want then
              Alcotest.failf "%s %s on %S: %s" what pat input
                (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) got)))
         [ ("raw", Desugar.pattern_exn pat); ("optimised", opt pat) ])
    [ ("(b{3,5})+", "bbbbbb", [ (0, 5) ]); ("(b{2,3})+", "bbbb", [ (0, 3) ]) ]

let test_rolling () =
  (* dotted quads roll into a counted group *)
  same "IPv4 rolls"
    (opt "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}")
    (Desugar.pattern_exn "([0-9]{1,3}\\.){3}[0-9]{1,3}");
  (* hex groups pick the 5x short window over the 2x long one *)
  same "MAC rolls"
    (opt
       "[0-9a-f]{2}:[0-9a-f]{2}:[0-9a-f]{2}:[0-9a-f]{2}:[0-9a-f]{2}:[0-9a-f]{2}")
    (Desugar.pattern_exn "([0-9a-f]{2}:){5}[0-9a-f]{2}");
  (* pure literal runs must NOT roll (AND packing + literal prefilter) *)
  same "literal tandem stays" (opt "abab") (Desugar.pattern_exn "abab");
  (* a char-led window must not eat the leading literal run *)
  same "leading literal preserved"
    (opt "QD[CN]{1,3}D[CN]{1,3}F")
    (Desugar.pattern_exn "QD[CN]{1,3}D[CN]{1,3}F")

let test_fixpoint_idempotent () =
  List.iter
    (fun pat ->
       let once = opt pat in
       same (pat ^ " idempotent") (Opt.optimize once) once)
    [ "a|b|c"; "abc|abd|abe"; "aa*bb*"; "(x{2}){3}"; "((a|b)|c)d"; "ab|b";
      "abd|cbd"; "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}";
      "a|[^\\x00-\\xff]b"; "(x{1,2}){2}" ]

(* Pathological nests terminate within the pass budget and still come
   out optimised (totality of the fixpoint, not just of one pass). *)
let test_pathological_nests () =
  same "((((a*)*)*)*)* -> a*" (opt "((((a*)*)*)*)*") (Desugar.pattern_exn "a*");
  same "(((a{2}){2}){2}){2} -> a{16}" (opt "(((a{2}){2}){2}){2}")
    (Desugar.pattern_exn "a{16}");
  same "deep alternation nest" (opt "((((a|b)|c)|d)|e)")
    (Desugar.pattern_exn "[abcde]");
  (* alternating exact/ranged nest: fuses level by level where sound *)
  let deep = opt "((x{1,2}){2}){3}" in
  same "((x{1,2}){2}){3} -> x{6,12}" deep (Desugar.pattern_exn "x{6,12}")

(* --- Span preservation --------------------------------------------------- *)

(* Known-tricky cases, including the counterexamples that shaped the
   adjacency and determinism restrictions. Each is checked on the
   oracle and through the full optimised-vs-unoptimised differential
   (spans and attempt counters on every scan path). *)
let preservation_corpus =
  [ ("a|bc|b", "abc bc b");
    ("[ab]{1,2}b|[ab]{1,2}c", "abc");
    ("(a|ab)c", "abc");
    ("a||b", "b");
    ("(|x)y", "xy y");
    ("abc|abd", "xxabdxx");
    ("ab|b", "ab b xb");
    ("abd|cbd", "xcbd abd");
    ("a[xy]{1,2}|b[xy]{1,2}", "axy bx");
    ("aa*", "aaa");
    ("x{1,2}x{1,3}", "xxxx");
    ("x{2}x{0,3}?", "xxxxx");
    ("(x{2}){3}", "xxxxxxxx");
    ("(a{2})+", "aaaaa");
    ("(x{2}){1,3}", "xxxxx");
    ("(x{1,2}){2}", "xxx");
    ("(x{0,2}){2,3}", "xxxxx");
    ("(b{3,5})+", "bbbbbb");
    ("(b{2,3})+", "bbbb");
    ("([bc]{2,3}?)+?c", "bbbcc");
    ("((b|bc){1,2}){2}", "bbcb");
    ("a|a", "aa");
    ("ab|ac|ad|q", "xacq");
    ("php3|php4|php5", "see php4 and php5");
    ("a|[^\\x00-\\xff]b", "ab");
    ("[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}", "ip 10.0.217.255 x");
    ("QD[CN]{1,3}D[CN]{1,3}F", "xQDCNDCF");
    (* rolls to (c+?a){2}: the rewrite must stay filter-led *)
    ("cc*?acc*?a", "") ]

let test_span_preservation_corpus () =
  List.iter
    (fun (pat, input) ->
       let raw = Desugar.pattern_exn pat in
       let optimised = Opt.optimize raw in
       let a = Backtrack.find_all raw input in
       let b = Backtrack.find_all optimised input in
       if a <> b then
         Alcotest.failf "%s on %S: raw %s, optimised %s" pat input
           (Fmt.str "%a" Fmt.(list ~sep:semi Alveare_engine.Semantics.pp_span) a)
           (Fmt.str "%a" Fmt.(list ~sep:semi Alveare_engine.Semantics.pp_span) b);
       match Diff.check_opt_case raw input with
       | [] -> ()
       | f :: _ -> Alcotest.failf "%a" Diff.pp_failure f)
    preservation_corpus

let qcheck_preserves_oracle =
  QCheck2.Test.make ~name:"optimize preserves oracle spans" ~count:800
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let raw = Desugar.normalize ast in
      let input = Gen_ast.cap_exponential raw input in
      Backtrack.find_all raw input = Backtrack.find_all (Opt.optimize raw) input)

let qcheck_preserves_simulator =
  QCheck2.Test.make ~name:"optimized program = unoptimized program" ~count:400
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast input in
      let compile optimize = Compile.compile_ast ~optimize ast in
      match compile true, compile false with
      | Ok a, Ok b ->
        Core.find_all a.Compile.program input
        = Core.find_all b.Compile.program input
      | (Error _ | Ok _), _ -> QCheck2.assume_fail ())

(* Rolled shapes are rare in the random generator, so replicate a random
   factor k times explicitly and push the case through the full
   optimised-vs-unoptimised differential (plan x prefilter matrix,
   attempt counters). *)
let qcheck_rolling_differential =
  QCheck2.Test.make ~name:"replicated factors: full opt differential"
    ~count:200
    ~print:(fun ((ast, input), k) ->
      Printf.sprintf "%d x %s" k (Gen_ast.print_ast_and_input (ast, input)))
    QCheck2.Gen.(pair Gen_ast.gen_ast_and_input (int_range 2 4))
    (fun ((ast, input), k) ->
      let replicated =
        Desugar.normalize (Ast.Concat (List.init k (fun _ -> ast)))
      in
      Diff.check_opt_case replicated
        (Gen_ast.cap_exponential replicated (input ^ input))
      = [])

(* --- Code-size effect ------------------------------------------------------ *)

let code_size ~optimize pat = Compile.code_size (Compile.compile_exn ~optimize pat)

let test_code_size_improvements () =
  let improves pat =
    let before = code_size ~optimize:false pat in
    let after = code_size ~optimize:true pat in
    if after >= before then
      Alcotest.failf "%s: %d -> %d (no improvement)" pat before after
  in
  let not_worse pat =
    let before = code_size ~optimize:false pat in
    let after = code_size ~optimize:true pat in
    if after > before then
      Alcotest.failf "%s: %d -> %d (regression)" pat before after
  in
  improves "a|b|c|d";
  improves "abc|abd";
  improves "(x{1,2}){2}";
  improves "php3|php4|php5";
  improves "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}";
  (* (x{2}){3} now collapses in Desugar, so both sides are equally small *)
  not_worse "(x{2}){3}";
  not_worse "red|green|blue|grey";
  not_worse "aa*bb*";
  check_int "a|b|c|d optimises to one instruction" 1
    (code_size ~optimize:true "a|b|c|d");
  check_int "never worse on a simple literal" (code_size ~optimize:false "abcd")
    (code_size ~optimize:true "abcd")

let () =
  Alcotest.run "opt"
    [ ( "rules",
        [ Alcotest.test_case "class fusion" `Quick test_class_fusion;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "epsilon branches" `Quick test_epsilon_branches;
          Alcotest.test_case "prefix factoring" `Quick test_prefix_factoring;
          Alcotest.test_case "suffix factoring" `Quick test_suffix_factoring;
          Alcotest.test_case "dead branches" `Quick test_dead_branches;
          Alcotest.test_case "repeat coalescing" `Quick test_repeat_coalescing;
          Alcotest.test_case "nest fusion" `Quick test_nest_fusion;
          Alcotest.test_case "nest stranding" `Quick test_nest_stranding;
          Alcotest.test_case "rolling" `Quick test_rolling;
          Alcotest.test_case "idempotent" `Quick test_fixpoint_idempotent;
          Alcotest.test_case "pathological nests" `Quick test_pathological_nests
        ] );
      ( "preservation",
        [ Alcotest.test_case "corpus" `Quick test_span_preservation_corpus;
          QCheck_alcotest.to_alcotest qcheck_preserves_oracle;
          QCheck_alcotest.to_alcotest qcheck_preserves_simulator;
          QCheck_alcotest.to_alcotest qcheck_rolling_differential ] );
      ( "code size",
        [ Alcotest.test_case "improvements" `Quick test_code_size_improvements ] ) ]
