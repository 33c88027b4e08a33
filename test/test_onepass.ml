(* Fused one-pass ruleset scan (lib/compiler/combined.ml): the
   [@onepasscheck] battery. Pins the bit-identity contract —
   [Ruleset.scan] produces the same tagged hits, the same per-rule
   cycles and the same aggregate counters as the rule-by-rule reference
   scan ([Per_rule.scan]) at the same core count (1, 3 and 4) — on
   handcrafted rulesets covering every rule class, on random rulesets,
   and on the three workload samplers. *)

module Ruleset = Alveare_compiler.Ruleset
module Combined = Alveare_compiler.Combined
module Compile = Alveare_compiler.Compile
module Cache = Alveare_exec.Cache
module Dfa = Alveare_arch.Dfa_overlay
module D = Alveare_test_support.Differential
module Gen = Alveare_test_support.Gen_ast

let check ?cores ?extended specs input =
  match D.check_onepass_case ?cores ?extended specs input with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Fmt.epr "%a@." D.pp_failure f) fs;
    Alcotest.failf "%d onepass divergence(s)" (List.length fs)

(* Every class the fused engine distinguishes, in one ruleset:
   AC-covered literals (overlapping: one a prefix of the other, plus an
   exact duplicate sharing a compile-cache entry and hence an overlay
   family), first-set dispatch rules (one fully backtracking-free, one
   not), a literal led by [^] (a plain byte: the surface syntax has no
   anchors), and a nullable rule (residual). *)
let mixed_specs =
  [ ("lit", "alert");
    ("lit-longer", "alerted");
    ("lit-dup", "alert");
    ("first-safe", "[a-z]{2,5}x");
    ("first-digits", "[0-9]{2,6}");
    ("pair", "(ab|cd)+x");
    ("caret", "^foo");
    ("nullable", "a*") ]

let mixed_input =
  "foo alerted, 12345 then abcdx and ccc 99 alert; aax cdx foo alert00x"

let test_mixed_classes () = check mixed_specs mixed_input

let test_empty_and_tiny_inputs () =
  check mixed_specs "";
  check mixed_specs "a";
  check mixed_specs "alert";
  check mixed_specs "x alert"

(* All rules in one class at a time: the sweep must also be exact when
   the dispatch table is empty (pure AC), when the AC index is absent
   (pure first-set), and when everything is residual. *)
let test_single_class_rulesets () =
  check [ ("a", "alert"); ("b", "alerted"); ("c", "lert") ]
    "alerted lert alert";
  check [ ("a", "[a-z]{2,5}x"); ("b", "[0-9]{2,6}") ]
    "aax 123 zzzzzx 4567 q8";
  check [ ("a", "^foo"); ("b", "a*") ] "foo aaa foo"

(* Overlapping literal occurrences ending at the same byte, and
   candidates that rewind before the current sweep position: the
   bucketed starts must match the per-rule prefilter exactly. *)
let test_overlap_rewind () =
  check
    [ ("a", "aba"); ("b", "ababa"); ("c", "ba") ]
    "abababababa ba aba"

(* A long run of letters: every byte is a first-set candidate of
   [a-z]{2,5}x, so each candidate arrives while the previous one's
   attempt window (up to six bytes) is still open. *)
let letters =
  String.concat "x "
    (List.init 12 (fun k ->
         String.init (20 + k) (fun i -> Char.chr (Char.code 'a' + (i mod 23)))))

let test_long_letter_run () =
  check mixed_specs letters;
  let rs = Ruleset.compile_exn [ ("first-safe", "[a-z]{2,5}x") ] in
  let before = Combined.counters () and hits = (Dfa.global_stats ()).Dfa.hits in
  let _ = Ruleset.scan rs letters in
  let after = Combined.counters () in
  Alcotest.(check bool) "sweep attempts on an overlay session" true
    (after.Combined.product_threads > before.Combined.product_threads);
  Alcotest.(check bool) "overlay table hits" true
    ((Dfa.global_stats ()).Dfa.hits > hits)

(* Every rule class listed twice under distinct tags. The copies share
   one compilation and one scan (see Combined), yet each must keep the
   report rows of a rule-by-rule scan: its own hits, cycles and
   counters. The AC-covered duplicate is in [mixed_specs]. *)
let test_repeated_rules () =
  let p = "[a-z]{2,5}x" in
  check [ ("first", p); ("digits", "[0-9]{2,6}"); ("first-again", p) ] letters;
  check [ ("caret", "^foo"); ("caret-again", "^foo") ] "^foo bar ^foo";
  check
    [ ("nullable", "a*"); ("lit", "alert"); ("nullable-again", "a*") ]
    "aa alert a";
  let deriv = "[0-9a-f]{7,10}&(?~.*[g-z].*)" in
  (match Ruleset.compile ~extended:true [ ("deriv", deriv) ] with
   | Ok rs ->
     (match rs.Ruleset.rules.(0).Ruleset.compiled.Compile.backend with
      | Compile.Derivative _ -> ()
      | Compile.Isa | Compile.Isa_lowered ->
        Alcotest.fail "expected a derivative-backed rule")
   | Error _ -> Alcotest.fail "extended rule failed to compile");
  check ~extended:true
    [ ("deriv", deriv); ("lit", "cafe"); ("deriv-again", deriv) ]
    "id 0badcafe, 12345678 and deadbeef9 or cafe00x"

(* Host work is per distinct pattern, not per rule: a pattern listed
   twice is looked up in the compile cache once, and the sweep
   dispatches its first-set candidates once. *)
let test_repeat_compiles_once () =
  let cache = Compile.create_cache () in
  let p = "[a-z]{2,5}x" in
  ignore (Ruleset.compile_exn ~cache [ ("a", p); ("b", p) ]);
  let s = Compile.cache_stats cache in
  Alcotest.(check int) "one compile-cache lookup" 1
    (s.Cache.hits + s.Cache.misses)

let test_repeat_dispatches_once () =
  let dispatched specs =
    let rs = Ruleset.compile_exn specs in
    let before = (Combined.counters ()).Combined.dispatch_candidates in
    ignore (Ruleset.scan rs letters);
    (Combined.counters ()).Combined.dispatch_candidates - before
  in
  let p = "[a-z]{2,5}x" in
  Alcotest.(check int) "dispatch deliveries"
    (dispatched [ ("a", p) ])
    (dispatched [ ("a", p); ("b", p) ])

(* A pattern that fails to compile is reported once per rule listing
   it, in rule order, each with its own tag. *)
let test_repeated_compile_error () =
  match Ruleset.compile [ ("a", "(ab"); ("ok", "abc"); ("b", "(ab") ] with
  | Ok _ -> Alcotest.fail "expected compile errors"
  | Error es ->
    Alcotest.(check (list (pair int string))) "failed rules"
      [ (0, "a"); (2, "b") ]
      (List.map
         (fun (e : Ruleset.compile_error) ->
            (e.Ruleset.failed_rule.Ruleset.id, e.Ruleset.failed_rule.Ruleset.tag))
         es);
    Alcotest.(check int) "one reason" 1
      (List.length
         (List.sort_uniq compare
            (List.map (fun (e : Ruleset.compile_error) -> e.Ruleset.reason) es)))

let test_counters_monotone () =
  let before = Combined.counters () in
  let rs = Ruleset.compile_exn mixed_specs in
  let _ = Ruleset.scan rs mixed_input in
  let after = Combined.counters () in
  Alcotest.(check bool) "scans bumped" true
    (after.Combined.onepass_scans > before.Combined.onepass_scans);
  Alcotest.(check bool) "bytes bumped" true
    (after.Combined.shared_pass_bytes
     >= before.Combined.shared_pass_bytes + String.length mixed_input)

(* Random rulesets: a handful of random ASTs over the small alphabet,
   plus fixed overlapping literals so the AC and dispatch layers always
   coexist, and one drawn rule repeated under a second tag; input
   carries witnesses so the sweep resolves real hits. *)
let gen_ruleset_case : ((string * string) list * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* asts = list_size (return n) Gen.gen_ast in
  let* witnessed =
    flatten_l
      (List.map
         (fun ast ->
            oneof [ Gen.gen_input; Gen.gen_input_with_witness ast ])
         asts)
  in
  let* again = int_bound (n - 1) in
  let drawn =
    List.mapi
      (fun i ast -> (Fmt.str "r%d" i, Alveare_frontend.Ast.to_pattern ast))
      asts
  in
  let specs =
    drawn
    @ [ ("lit-a", "abc"); ("lit-b", "abcd");
        ("again", snd (List.nth drawn again)) ]
  in
  return (specs, String.concat "abcd" witnessed)

let print_ruleset_case (specs, input) =
  Fmt.str "rules: %s@.input: %S"
    (String.concat " | " (List.map snd specs))
    input

let qcheck_onepass =
  QCheck2.Test.make ~count:150 ~name:"onepass == per-rule (random rulesets)"
    ~print:print_ruleset_case gen_ruleset_case (fun (specs, input) ->
      match D.check_onepass_case specs input with
      | [] -> true
      | f :: _ -> QCheck2.Test.fail_report (Fmt.str "%a" D.pp_failure f))

let test_workloads () =
  match D.run_onepass_workloads ~per_workload:20 ~seed:2026 () with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Fmt.epr "%a@." D.pp_failure f) fs;
    Alcotest.failf "%d workload divergence(s)" (List.length fs)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "onepass"
    [ ( "fused-scan",
        [ Alcotest.test_case "mixed rule classes" `Quick test_mixed_classes;
          Alcotest.test_case "empty and tiny inputs" `Quick
            test_empty_and_tiny_inputs;
          Alcotest.test_case "single-class rulesets" `Quick
            test_single_class_rulesets;
          Alcotest.test_case "overlapping literals, rewinding candidates"
            `Quick test_overlap_rewind;
          Alcotest.test_case "long letter run" `Quick test_long_letter_run;
          Alcotest.test_case "counters monotone" `Quick test_counters_monotone
        ] );
      ( "repeated-rules",
        [ Alcotest.test_case "every class listed twice" `Quick
            test_repeated_rules;
          Alcotest.test_case "one compile-cache lookup" `Quick
            test_repeat_compiles_once;
          Alcotest.test_case "one dispatch per group" `Quick
            test_repeat_dispatches_once;
          Alcotest.test_case "errors per listing rule" `Quick
            test_repeated_compile_error ] );
      ("qcheck", [ qtest qcheck_onepass ]);
      ( "workloads",
        [ Alcotest.test_case "sampler rulesets" `Quick test_workloads ] ) ]
