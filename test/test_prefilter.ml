(* Prefilter subsystem tests: the compile-time analysis (first sets,
   literals, min length), the Aho-Corasick literal automaton, the
   serialised sidecar, and the scan-time contracts — prefiltered runs
   report exactly the spans of the dense scan, with consistent
   offset/cycle accounting in both modes. *)

module Pf = Alveare_prefilter.Prefilter
module Ac = Alveare_prefilter.Ac
module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Core = Alveare_arch.Core
module Backtrack = Alveare_engine.Backtrack
module S = Alveare_engine.Semantics
module Charset = Alveare_frontend.Charset

let check = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let pf_of pattern = (Compile.compile_exn pattern).Compile.prefilter

let first_chars t =
  List.filter (Pf.mem_first t) (List.init 256 Char.chr)

(* --- analysis units ---------------------------------------------------- *)

let test_literal_pattern () =
  let t = pf_of "abc" in
  check "not nullable" false t.Pf.nullable;
  check_int "min length" 3 t.Pf.min_length;
  check "first = {a}" true (first_chars t = [ 'a' ]);
  (match t.Pf.literals with
   | Some { Pf.lits = [ "abc" ]; offset = 0; exact = true } -> ()
   | l ->
     Alcotest.failf "unexpected literals: %s"
       (match l with None -> "none" | Some _ -> Pf.describe t))

let test_alt_shared_first () =
  let t = pf_of "abc|axy" in
  check "first = {a}" true (first_chars t = [ 'a' ]);
  (match t.Pf.literals with
   | Some { Pf.lits; offset = 0; exact = true } ->
     check "both branches" true (lits = [ "abc"; "axy" ])
   | _ -> Alcotest.failf "unexpected literals: %s" (Pf.describe t))

let test_alt_disjoint_first () =
  let t = pf_of "abc|xyz" in
  check "first = {a,x}" true (first_chars t = [ 'a'; 'x' ]);
  check_int "min length" 3 t.Pf.min_length;
  (match t.Pf.literals with
   | Some { Pf.lits; offset = 0; exact = true } ->
     check "union" true (lits = [ "abc"; "xyz" ])
   | _ -> Alcotest.failf "unexpected literals: %s" (Pf.describe t))

let test_nullable_head () =
  (* a*b: matches can start with 'a' or 'b'; no mandatory prefix
     literal exists. *)
  let t = pf_of "a*b" in
  check "not nullable" false t.Pf.nullable;
  check_int "min length" 1 t.Pf.min_length;
  check "first = {a,b}" true (first_chars t = [ 'a'; 'b' ]);
  check "no usable literals" true (Pf.usable_literals t = None);
  check "skip loop usable" true (Pf.first_usable t)

let test_nullable_pattern () =
  (* a*: empty match anywhere; the skip loop must be off. *)
  let t = pf_of "a*" in
  check "nullable" true t.Pf.nullable;
  check_int "min length" 0 t.Pf.min_length;
  check "skip loop unusable" false (Pf.first_usable t);
  check "no literals" true (Pf.usable_literals t = None)

let test_bounded_repeat () =
  let t = pf_of "a{2,4}b" in
  check_int "min length" 3 t.Pf.min_length;
  check "first = {a}" true (first_chars t = [ 'a' ]);
  (* qmin copies of the body are mandatory, so "aa" is a guaranteed
     prefix — but matches can be longer, so inexact. *)
  (match t.Pf.literals with
   | Some { Pf.lits = [ "aa" ]; offset = 0; exact = false } -> ()
   | _ -> Alcotest.failf "unexpected literals: %s" (Pf.describe t))

let test_case_insensitive_class () =
  let t = pf_of "[Aa]bc" in
  check "first = {A,a}" true (first_chars t = [ 'A'; 'a' ]);
  (match t.Pf.literals with
   | Some { Pf.lits; offset = 0; exact = true } ->
     check "both cases crossed" true (lits = [ "Abc"; "abc" ])
   | _ -> Alcotest.failf "unexpected literals: %s" (Pf.describe t))

let test_negated_class_first () =
  let t = pf_of "[^a]x" in
  check "first excludes a" false (Pf.mem_first t 'a');
  check "first includes b" true (Pf.mem_first t 'b');
  check_int "first count" 255 t.Pf.first_count;
  check "skip loop usable" true (Pf.first_usable t)

let test_any_excludes_newline () =
  (* '.' must agree with the engines: everything but newline. *)
  let t = pf_of ".x" in
  check "no newline" false (Pf.mem_first t '\n');
  check "other bytes" true (Pf.mem_first t 'q');
  check_int "first count" 255 t.Pf.first_count

let test_inner_literal_offset () =
  (* Fixed-width head [0-9] then a literal: candidates come from the
     inner literal at offset 1. *)
  let t = pf_of "[0-9]WXYZ" in
  (match t.Pf.literals with
   | Some { Pf.lits = [ "WXYZ" ]; offset = 1; exact = false } -> ()
   | _ -> Alcotest.failf "unexpected literals: %s" (Pf.describe t))

let test_analyze_total_on_workloads () =
  let rng = Alveare_workloads.Rng.create 5 in
  List.iter
    (fun p ->
       match Compile.compile p with
       | Error _ -> ()
       | Ok c -> ignore (Pf.describe c.Compile.prefilter))
    (Alveare_workloads.Powren.patterns rng 100
     @ Alveare_workloads.Snort.patterns rng 100
     @ Alveare_workloads.Protomata.patterns rng 100)

(* --- soundness properties (qcheck) ------------------------------------- *)

module Gen = Alveare_test_support.Gen_ast

(* Every oracle match start byte is in the first set; min_length bounds
   every span; literal sets cover every match at their exact offset. *)
let prop_overapprox =
  QCheck2.Test.make ~count:300 ~name:"first set over-approximates"
    ~print:Gen.print_ast_and_input Gen.gen_ast_and_input (fun (ast, input) ->
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let t = c.Compile.prefilter in
        let spans = Backtrack.find_all c.Compile.ast input in
        List.for_all
          (fun (sp : S.span) ->
             let len = sp.S.stop - sp.S.start in
             (len = 0 || Pf.mem_first t input.[sp.S.start])
             && len >= t.Pf.min_length
             && (len > 0 || t.Pf.nullable)
             && (match Pf.usable_literals t with
                 | None -> true
                 | Some { Pf.lits; offset; _ } ->
                   List.exists
                     (fun l ->
                        let p = sp.S.start + offset in
                        p + String.length l <= String.length input
                        && String.sub input p (String.length l) = l)
                     lits))
          spans)

(* Round-trip through the sidecar encoding is the identity. *)
let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"sidecar roundtrip"
    ~print:Gen.print_ast Gen.gen_ast (fun ast ->
      let t = Pf.analyze (Alveare_frontend.Desugar.normalize ast) in
      match Pf.of_bytes (Pf.to_bytes t) with
      | Ok t' -> Pf.equal t t'
      | Error m -> QCheck2.Test.fail_reportf "decode failed: %s" m)

(* --- Aho-Corasick ------------------------------------------------------- *)

let naive_occurrences lits input =
  List.concat
    (List.mapi
       (fun pat l ->
          let n = String.length input and k = String.length l in
          let rec go pos acc =
            if pos + k > n then List.rev acc
            else if String.sub input pos k = l then go (pos + 1) ((pat, pos) :: acc)
            else go (pos + 1) acc
          in
          go 0 [])
       lits)

let sorted = List.sort compare

let test_ac_classic () =
  let ac = Ac.build [ "he"; "she"; "his"; "hers" ] in
  check_int "patterns" 4 (Ac.pattern_count ac);
  check "ushers occurrences" true
    (sorted (Ac.find_all ac "ushers")
     = sorted [ (0, 2); (1, 1); (3, 2) ])

let test_ac_vs_naive () =
  let cases =
    [ ([ "a" ], "aaaa");
      ([ "aa"; "a" ], "aaaa");
      ([ "ab"; "ba" ], "ababab");
      ([ "abc"; "bc"; "c" ], "xxabcxx");
      ([ "x" ], "");
      ([ "ab"; "ab" ], "abab");       (* duplicates both reported *)
      ([ "aab"; "ab"; "b" ], "aaabab") ]
  in
  List.iter
    (fun (lits, input) ->
       let got = sorted (Ac.find_all (Ac.build lits) input) in
       let want = sorted (naive_occurrences lits input) in
       if got <> want then
         Alcotest.failf "AC diverges on %S" input)
    cases

let test_ac_empty_literal_rejected () =
  check "empty literal" true
    (try ignore (Ac.build [ "a"; "" ]); false
     with Invalid_argument _ -> true)

let test_ac_from () =
  let ac = Ac.build [ "ab" ] in
  check "from skips prefix" true (Ac.find_all ~from:1 ac "abab" = [ (0, 2) ])

(* --- scan-time contracts ----------------------------------------------- *)

(* Satellite: Core.search ~from under prefiltered skipping — leftmost
   semantics must be preserved from every starting offset, including
   offsets past the last candidate and on nullable patterns (which must
   take the dense path). *)
let test_search_from_regressions () =
  let cases =
    [ ("b+", "aaabbbab", [ 0; 2; 3; 5; 6; 7; 8 ]);
      ("ab", "xxabxxab", [ 0; 1; 2; 3; 7; 8 ]);
      ("a*", "bbabb", [ 0; 1; 2; 4; 5 ]);        (* nullable: dense path *)
      ("(ab|cd)+", "zzcdabzz", [ 0; 2; 5; 8 ]);
      ("x", "aaaa", [ 0; 2; 4 ]) ]
  in
  List.iter
    (fun (pat, input, froms) ->
       let c = Compile.compile_exn pat in
       List.iter
         (fun from ->
            let dense = Core.search ~from c.Compile.program input in
            let fast =
              Core.search ~prefilter:c.Compile.prefilter ~from
                c.Compile.program input
            in
            if dense <> fast then
              Alcotest.failf "%S from %d: dense/prefiltered diverge" pat from)
         froms)
    cases

let test_find_all_equivalence () =
  let cases =
    [ ("abc", "xxabcxxabc");
      ("a*b", "aabzzabzb");
      ("a*", "bbabb");
      ("[^a]+", "aaXaaYY");
      ("(ab|cd){2}", "zabcdz") ]
  in
  List.iter
    (fun (pat, input) ->
       let c = Compile.compile_exn pat in
       let dense = Core.find_all c.Compile.program input in
       let fast =
         Core.find_all ~prefilter:c.Compile.prefilter c.Compile.program input
       in
       if dense <> fast then Alcotest.failf "%S: find_all diverges" pat)
    cases

(* Satellite: stats accounting must be consistent across modes — same
   offsets_scanned, attempts + offsets_pruned = offsets_scanned, fewer
   (or equal) attempts with the prefilter, and the cycle identity
   cycles = instructions + rollbacks + scan_cycles in both. *)
let test_stats_consistency () =
  let cases =
    [ ("abc", "xxabcxxabcxx");
      ("b+", "aaabbbab");
      ("(ab|cd)+", "zzcdabzzababzz");
      ("[^a]x", "aaaxbxaax");
      ("a*", "bbabb") ]
  in
  List.iter
    (fun (pat, input) ->
       let c = Compile.compile_exn pat in
       let dense = Core.fresh_stats () in
       let fast = Core.fresh_stats () in
       let sd = Core.find_all ~stats:dense c.Compile.program input in
       let sf =
         Core.find_all ~stats:fast ~prefilter:c.Compile.prefilter
           c.Compile.program input
       in
       check "spans equal" true (sd = sf);
       check_int (pat ^ ": offsets_scanned equal") dense.Core.offsets_scanned
         fast.Core.offsets_scanned;
       check_int (pat ^ ": dense attempts+pruned=scanned")
         dense.Core.offsets_scanned
         (dense.Core.attempts + dense.Core.offsets_pruned);
       check_int (pat ^ ": fast attempts+pruned=scanned")
         fast.Core.offsets_scanned
         (fast.Core.attempts + fast.Core.offsets_pruned);
       check (pat ^ ": no extra attempts") true
         (fast.Core.attempts <= dense.Core.attempts);
       check_int (pat ^ ": dense cycle identity") dense.Core.cycles
         (dense.Core.instructions + dense.Core.rollbacks
          + dense.Core.scan_cycles);
       check_int (pat ^ ": fast cycle identity") fast.Core.cycles
         (fast.Core.instructions + fast.Core.rollbacks + fast.Core.scan_cycles))
    cases

let test_find_all_candidates () =
  let c = Compile.compile_exn "abc" in
  let input = "abcxxabcxabc" in
  let dense = Core.find_all c.Compile.program input in
  (* Exact candidates reproduce the dense scan; over-approximate
     candidates too (extras are rejected by the attempt). *)
  check "exact candidates" true
    (Core.find_all_candidates ~candidates:[| 0; 5; 9 |] c.Compile.program input
     = dense);
  check "wider candidates" true
    (Core.find_all_candidates ~candidates:[| 0; 1; 5; 7; 9; 11 |]
       c.Compile.program input
     = dense);
  check "no candidates" true
    (Core.find_all_candidates ~candidates:[||] c.Compile.program input = []);
  let stats = Core.fresh_stats () in
  ignore
    (Core.find_all_candidates ~stats ~candidates:[| 0; 5; 9 |]
       c.Compile.program input);
  check_int "all offsets accounted" stats.Core.offsets_scanned
    (stats.Core.attempts + stats.Core.offsets_pruned)

(* --- ruleset scan ------------------------------------------------------- *)

let ruleset_specs =
  [ ("get", "GET /[a-z]{1,8}");
    ("digits", "[0-9]{2,4}");
    ("token", "(user|login)=[a-z]+");
    ("star", "z*q") ]

let ruleset_input =
  "GET /index login=abc 1234 q GET /admin user=root 56 zzq xx"

let test_ruleset_on_off () =
  let t = Ruleset.compile_exn ruleset_specs in
  let on = Ruleset.scan t ruleset_input in
  let off = Ruleset.scan ~prefilter:false t ruleset_input in
  check "hits identical" true (on.Ruleset.hits = off.Ruleset.hits);
  check "hits nonempty" true (on.Ruleset.hits <> []);
  check "AC path used" true (on.Ruleset.prefiltered_rules > 0);
  check "off uses no AC" true (off.Ruleset.prefiltered_rules = 0);
  check "fewer attempts" true
    (on.Ruleset.total_attempts <= off.Ruleset.total_attempts);
  check "prunes offsets" true (on.Ruleset.total_offsets_pruned > 0);
  check_int "on: attempts+pruned=scanned" on.Ruleset.total_offsets_scanned
    (on.Ruleset.total_attempts + on.Ruleset.total_offsets_pruned);
  check_int "off: attempts+pruned=scanned" off.Ruleset.total_offsets_scanned
    (off.Ruleset.total_attempts + off.Ruleset.total_offsets_pruned)

let test_ruleset_multicore_on_off () =
  let t = Ruleset.compile_exn ruleset_specs in
  let on = Ruleset.scan ~cores:3 t ruleset_input in
  let off = Ruleset.scan ~cores:3 ~prefilter:false t ruleset_input in
  check "hits identical" true (on.Ruleset.hits = off.Ruleset.hits);
  (* Multi-core scans take their candidates from the one fused sweep,
     so covered rules keep the literal prefilter. *)
  check "AC at 3 cores" true (on.Ruleset.prefiltered_rules > 0);
  check "fewer attempts" true
    (on.Ruleset.total_attempts <= off.Ruleset.total_attempts)

(* --- serialisation edges ------------------------------------------------ *)

let test_sidecar_rejects_garbage () =
  check "empty" true (Result.is_error (Pf.of_bytes Bytes.empty));
  check "bad magic" true
    (Result.is_error (Pf.of_bytes (Bytes.of_string "NOPE\x01\x00")));
  let good = Pf.to_bytes (pf_of "abc") in
  check "truncated" true
    (Result.is_error (Pf.of_bytes (Bytes.sub good 0 (Bytes.length good - 3))));
  let bad_version = Bytes.copy good in
  Bytes.set bad_version 4 '\x63';
  check "bad version" true (Result.is_error (Pf.of_bytes bad_version))

(* Byte 5 holds the flags; only nullable (1), literal table (4) and
   exact (8) are defined, and an image with any other bit set is
   refused, bit 2 included. *)
let test_sidecar_rejects_undefined_flags () =
  let good = Pf.to_bytes (pf_of "a*") in
  check "nullable image loads" true (Result.is_ok (Pf.of_bytes good));
  List.iter
    (fun bit ->
       let bad = Bytes.copy good in
       Bytes.set_uint8 bad 5 (Bytes.get_uint8 good 5 lor bit);
       check (Printf.sprintf "flag bit 0x%02x refused" bit) true
         (Result.is_error (Pf.of_bytes bad)))
    [ 2; 16; 32; 64; 128 ]

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "prefilter"
    [ ( "analysis",
        [ Alcotest.test_case "literal pattern" `Quick test_literal_pattern;
          Alcotest.test_case "alternation, shared first" `Quick
            test_alt_shared_first;
          Alcotest.test_case "alternation, disjoint first" `Quick
            test_alt_disjoint_first;
          Alcotest.test_case "nullable head a*b" `Quick test_nullable_head;
          Alcotest.test_case "nullable pattern a*" `Quick test_nullable_pattern;
          Alcotest.test_case "bounded repeat" `Quick test_bounded_repeat;
          Alcotest.test_case "case-insensitive class" `Quick
            test_case_insensitive_class;
          Alcotest.test_case "negated class" `Quick test_negated_class_first;
          Alcotest.test_case "dot excludes newline" `Quick
            test_any_excludes_newline;
          Alcotest.test_case "inner literal offset" `Quick
            test_inner_literal_offset;
          Alcotest.test_case "total on workload samplers" `Quick
            test_analyze_total_on_workloads ] );
      ( "properties",
        [ qtest prop_overapprox; qtest prop_roundtrip ] );
      ( "aho-corasick",
        [ Alcotest.test_case "classic ushers" `Quick test_ac_classic;
          Alcotest.test_case "matches naive scan" `Quick test_ac_vs_naive;
          Alcotest.test_case "empty literal rejected" `Quick
            test_ac_empty_literal_rejected;
          Alcotest.test_case "from offset" `Quick test_ac_from ] );
      ( "scan",
        [ Alcotest.test_case "search ~from regressions" `Quick
            test_search_from_regressions;
          Alcotest.test_case "find_all equivalence" `Quick
            test_find_all_equivalence;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "candidate scan" `Quick test_find_all_candidates ] );
      ( "ruleset",
        [ Alcotest.test_case "scan on/off identical hits" `Quick
            test_ruleset_on_off;
          Alcotest.test_case "multicore scan on/off" `Quick
            test_ruleset_multicore_on_off ] );
      ( "sidecar",
        [ Alcotest.test_case "rejects garbage" `Quick
            test_sidecar_rejects_garbage;
          Alcotest.test_case "rejects undefined flags" `Quick
            test_sidecar_rejects_undefined_flags ] ) ]
