(* Fused one-pass ruleset scan (lib/compiler/combined.ml): the
   [@onepasscheck] battery. Pins the bit-identity contract —
   [Ruleset.scan] produces the same tagged hits, the same per-rule
   cycles and the same aggregate counters as the rule-by-rule reference
   scan ([Per_rule.scan]) — on handcrafted rulesets covering every rule
   class, on random rulesets, and on the three workload samplers. *)

module Ruleset = Alveare_compiler.Ruleset
module Combined = Alveare_compiler.Combined
module Dfa = Alveare_arch.Dfa_overlay
module D = Alveare_test_support.Differential
module Gen = Alveare_test_support.Gen_ast

let check ?cores specs input =
  match D.check_onepass_case ?cores specs input with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Fmt.epr "%a@." D.pp_failure f) fs;
    Alcotest.failf "%d onepass divergence(s)" (List.length fs)

(* Every class the fused engine distinguishes, in one ruleset:
   AC-covered literals (overlapping: one a prefix of the other, plus an
   exact duplicate sharing a compile-cache entry and hence an overlay
   family), first-set dispatch rules (one fully backtracking-free, one
   not), an anchored rule, and a nullable rule (both residual). *)
let mixed_specs =
  [ ("lit", "alert");
    ("lit-longer", "alerted");
    ("lit-dup", "alert");
    ("first-safe", "[a-z]{2,5}x");
    ("first-digits", "[0-9]{2,6}");
    ("pair", "(ab|cd)+x");
    ("anchored", "^foo");
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
   coexist; input carries witnesses so the sweep resolves real hits. *)
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
  let specs =
    List.mapi
      (fun i ast -> (Fmt.str "r%d" i, Alveare_frontend.Ast.to_pattern ast))
      asts
    @ [ ("lit-a", "abc"); ("lit-b", "abcd") ]
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
      ("qcheck", [ qtest qcheck_onepass ]);
      ( "workloads",
        [ Alcotest.test_case "sampler rulesets" `Quick test_workloads ] ) ]
