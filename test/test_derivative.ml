(* The derivative-engine battery (@derivcheck).

   The derivative matcher is the semantic oracle for the extended
   operators, so its own correctness is anchored three ways:

   - span-for-span agreement with the Backtrack oracle (and hence the
     whole plan-executor stack) on the existing random-AST POSIX-ERE
     corpus — the same generators the cross-engine differential uses;
   - agreement of the lazy DFA with the position-memo interpreter it
     replaced ([Deriv_oracle]) on extended patterns — [find_all],
     [search ~from] at several origins and [match_at] — on random
     cases, on lookarounds nested in look bodies, intersections,
     complements and repeats, on the policy rules over the policy
     benchmark's traffic, and with tables and arena capped so small
     that every scan flushes;
   - algebraic identities of the extended operators checked as
     language equivalence on concrete inputs (r&r = r, (?~(?~r))
     matches where r does, De Morgan), plus hand-picked intersection /
     complement / lookaround cases with known spans, including
     end-of-input edge cases. *)

module Gen_ast = Alveare_test_support.Gen_ast
module Engine = Alveare_derivative.Engine
module Backtrack = Alveare_engine.Backtrack
module S = Alveare_engine.Semantics
module Ast = Alveare_frontend.Ast
module Desugar = Alveare_frontend.Desugar

let show_spans spans = Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) spans

let spans_of_pairs = List.map (fun (start, stop) -> { S.start; stop })

let check_spans ?(extended = true) pattern input expected =
  let eng = Engine.of_pattern ~extended pattern in
  let got = Engine.find_all eng input in
  Alcotest.(check string)
    (Fmt.str "%s on %S" pattern input)
    (show_spans (spans_of_pairs expected))
    (show_spans got)

(* --- Agreement with the backtracking oracle on plain ERE --------------- *)

let check_vs_backtrack ast input =
  let oracle = Backtrack.find_all ast input in
  let got = Engine.find_all (Engine.of_ast ast) input in
  if got <> oracle then
    Alcotest.failf "derivative diverges@.  pattern: %s@.  input: %S@.  deriv %s oracle %s"
      (Ast.to_pattern ast) input (show_spans got) (show_spans oracle)

let test_plain_corpus () =
  (* curated cases that historically separate FIRST from LONGEST *)
  let cases =
    [ ("a|ab", "ab");
      ("a|ab", "abab");
      ("(a|ab)c", "abc");
      ("a*", "aaa");
      ("a*?", "aaa");
      ("a*?b", "aab");
      ("(a|)*b", "aab");
      ("(|a)*b", "aab");
      ("(a*)*b", "aab");
      ("(a?){2,3}b", "ab");
      ("ab|a", "ab");
      ("(ab|a)(c|bc)", "abc");
      ("a{2,4}", "aaaaa");
      ("a{2,4}?", "aaaaa");
      ("(ab)*", "ababab");
      ("x(a|ab)*y", "xababy");
      ("[a-c]+", "abcd");
      ("a?b?c?", "ca");
      ("", "ab");
      ("(a*)*", "aa") ]
  in
  List.iter
    (fun (pattern, input) ->
      match Desugar.pattern ~extended:false pattern with
      | Error e -> Alcotest.failf "parse %s: %s" pattern e
      | Ok ast -> check_vs_backtrack ast input)
    cases

let test_random_differential () =
  let prop (ast, input) =
    let oracle = Backtrack.find_all ast input in
    let got = Engine.find_all (Engine.of_ast ast) input in
    if got <> oracle then
      QCheck2.Test.fail_reportf "deriv %s oracle %s" (show_spans got)
        (show_spans oracle)
    else true
  in
  let cell =
    QCheck2.Test.make ~count:400 ~name:"derivative = backtrack spans"
      ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input prop
  in
  QCheck2.Test.check_exn cell

(* --- Extended operators: known spans ----------------------------------- *)

let test_intersection () =
  (* conjunction of length and content constraints *)
  check_spans "[ab]*&a*b" "aab" [ (0, 3) ];
  (* zero a's then b: "b" is in both languages *)
  check_spans "[ab]*&a*b" "ba" [ (0, 1) ];
  check_spans "[ab]*&a*b" "cc" [];
  (* longest (prefer-continue) preference; the trailing empty span at
     end of input mirrors plain a* *)
  check_spans "a*&a*" "aaa" [ (0, 3); (3, 3) ];
  (* intersection with a literal is that literal *)
  check_spans "abc&[a-c]+" "xabcy" [ (1, 4) ];
  (* empty intersection *)
  check_spans "a&b" "ab" [];
  (* three members *)
  check_spans "[ab]+&[bc]+&b+" "abba" [ (1, 3) ]

let test_complement () =
  (* complement of 'a' matches everything except exactly "a" —
     leftmost-longest takes the whole input, then the empty suffix at
     end of input (the empty string is not "a" either) *)
  check_spans "(?~a)" "ba" [ (0, 2); (2, 2) ];
  (* on input "a": at 0 the longest non-"a" prefix is "" (the prefix
     "a" itself is excluded); the scan then advances byte by byte *)
  check_spans "(?~a)" "a" [ (0, 0); (1, 1) ];
  (* strings not containing "ab" as a substring: complement of .*ab.*
     — the longest clean prefix at 0 is "xa" (it stops before the b) *)
  check_spans "(?~.*ab.*)" "xaby" [ (0, 2); (2, 4); (4, 4) ];
  (* intersection with complement: a+ minus "aa" *)
  check_spans "a+&(?~aa)" "aaa" [ (0, 3) ];
  check_spans "a+&(?~aa)" "aa" [ (0, 1); (1, 2) ]

let test_lookahead () =
  (* classic: a followed by b, consuming only a *)
  check_spans "a(?=b)" "ab ac ab" [ (0, 1); (6, 7) ];
  check_spans "a(?!b)" "ab ac a" [ (3, 4); (6, 7) ];
  (* end of input: (?!.) holds only at EOI (with . = any byte) *)
  check_spans "a(?!.)" "aa" [ (1, 2) ];
  (* lookahead at end of input fails when it needs a byte *)
  check_spans "a(?=b)" "a" [];
  (* negative lookahead at EOI trivially holds *)
  check_spans "a(?!b)" "a" [ (0, 1) ];
  (* lookahead constrains the alternative taken *)
  check_spans "(a|ab)(?=c)" "abc" [ (0, 2) ]

let test_lookbehind () =
  (* b preceded by a *)
  check_spans "(?<=a)b" "ab cb ab" [ (1, 2); (7, 8) ];
  check_spans "(?<!a)b" "ab cb b" [ (4, 5); (6, 7) ];
  (* start of input: lookbehind for a byte fails at 0 *)
  check_spans "(?<=a)b" "b" [];
  (* negative lookbehind at start of input trivially holds *)
  check_spans "(?<!a)b" "b" [ (0, 1) ];
  (* unanchored lookbehind body: any position with an 'a' somewhere
     before — the body may match any window ending at p *)
  check_spans "(?<=a.*)b" "a b" [ (2, 3) ]

let test_look_edge_cases () =
  (* both branches are zero-width: a span at every scan position *)
  check_spans "(?=a)|" "ba" [ (0, 0); (1, 1); (2, 2) ];
  (* lookahead alone: zero-width spans where it holds *)
  check_spans "(?=ab)" "abab" [ (0, 0); (2, 2) ];
  (* nested lookaround: b preceded by a that is followed by "bc" *)
  check_spans "(?<=a(?=bc))b" "abc abd" [ (1, 2) ]

(* --- The lazy DFA against the position-memo oracle --------------------- *)

module Oracle = Alveare_test_support.Deriv_oracle
module W = Alveare_workloads

let show_span = function None -> "none" | Some s -> Fmt.str "%a" S.pp_span s

(* The first disagreement of [eng] with [oracle] on [input]: [find_all],
   [search ~from] at a few origins, and [match_at] at the [starts]
   picked from the input length and the oracle's spans (default: every
   position). [~probes:false] checks [find_all] alone. *)
let oracle_divergence ?(probes = true)
    ?(starts = fun n _ -> List.init (n + 1) Fun.id) eng oracle input =
  let n = String.length input in
  let got = Engine.find_all eng input and want = Oracle.find_all oracle input in
  let origins = if probes then [ 0; 1; n / 3; n / 2; n - 1; n; n + 1 ] else [] in
  let starts = if probes then starts n want else [] in
  if got <> want then
    Some (Fmt.str "find_all %s oracle %s" (show_spans got) (show_spans want))
  else
    let search from =
      let got = Engine.search ~from eng input
      and want = Oracle.search ~from oracle input in
      if got = want then None
      else Some (Fmt.str "search ~from:%d %s oracle %s" from (show_span got) (show_span want))
    in
    let match_at s =
      let got = Engine.match_at eng input s and want = Oracle.match_at oracle input s in
      if got = want then None
      else
        let show = function None -> "none" | Some e -> string_of_int e in
        Some (Fmt.str "match_at %d: %s oracle %s" s (show got) (show want))
    in
    match List.find_map search origins with
    | Some _ as d -> d
    | None -> List.find_map match_at (List.filter (fun s -> s <= n) starts)

let oracle_property ~name ~count gen =
  let prop (ast, input) =
    match oracle_divergence (Engine.of_ast ast) (Oracle.of_ast ast) input with
    | None -> true
    | Some d -> QCheck2.Test.fail_report d
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count ~name ~print:Gen_ast.print_ast_and_input gen prop)

let test_oracle_extended () =
  oracle_property ~name:"lazy DFA = oracle (extended)" ~count:500
    Gen_ast.gen_extended_ast_and_input

let test_oracle_nested () =
  oracle_property ~name:"lazy DFA = oracle (nested lookarounds)" ~count:500
    Gen_ast.gen_nested_ast_and_input

(* The policy benchmark's rules (sampler seed 31) over its 8 KiB pool of
   128-byte blocks and ten permutations of the blocks, one engine per
   rule across all eleven inputs. The oracle's lookbehinds are quadratic,
   so only the pool gets the [search] and [match_at] probes. *)
let test_oracle_policy () =
  let asts =
    List.map (Desugar.pattern_exn ~extended:true)
      (W.Policy.patterns (W.Rng.create 31) 16)
  in
  let pool =
    (W.Streams.generate ~rng:(W.Rng.create 32) ~size:(8 * 1024)
       ~background:W.Policy.background
       ~plant:(W.Streams.plant_of_patterns ~asts) ~plant_every:1024 ())
      .W.Streams.data
  in
  let blocks = List.init (String.length pool / 128) (fun i -> String.sub pool (i * 128) 128) in
  let inputs =
    pool
    :: List.init 10 (fun k ->
        String.concat "" (W.Rng.shuffle (W.Rng.create (((k + 1) * 1000) + 32)) blocks))
  in
  List.iter
    (fun ast ->
       let eng = Engine.of_ast ast and oracle = Oracle.of_ast ast in
       List.iteri
         (fun k input ->
            let starts n spans =
              [ 0; 1; n / 2; n ]
              @ List.filteri (fun i _ -> i < 8)
                  (List.map (fun (s : S.span) -> s.S.start) spans)
            in
            match oracle_divergence ~probes:(k = 0) ~starts eng oracle input with
            | None -> ()
            | Some d -> Alcotest.failf "%s: %s" (Ast.to_pattern ast) d)
         inputs)
    asts

(* Past 62 lookarounds a mask no longer fits an int of bits and is
   interned instead: 64 two-byte lookbehinds each guarding a byte, and
   eight lookaheads. *)
let test_oracle_wide_masks () =
  let bytes = List.init 8 (fun i -> Char.chr (Char.code 'a' + i)) in
  let look behind negative body tail =
    Ast.Concat [ Ast.Look ({ Ast.behind; negative }, body); tail ]
  in
  let pair x y = Ast.Concat [ Ast.Char x; Ast.Char y ] in
  let ast =
    Ast.Alt
      (List.concat_map
         (fun x -> List.map (fun y -> look true false (pair x y) (Ast.Char x)) bytes)
         bytes
       @ List.map (fun x -> look false true (pair x x) (Ast.Char x)) bytes)
  in
  let rng = W.Rng.create 5 in
  let eng = Engine.of_ast ast and oracle = Oracle.of_ast ast in
  for _ = 1 to 20 do
    let input = String.init 60 (fun _ -> W.Rng.char_of rng "abcdefgh") in
    match oracle_divergence eng oracle input with
    | None -> ()
    | Some d -> Alcotest.failf "wide masks on %S: %s" input d
  done

(* Tables capped at two entries and an arena at 16 nodes: every scan
   flushes and rebuilds, and the spans stay the oracle's. *)
module Tiny = Engine.Make (struct let max_entries = 2 let max_nodes = 16 end)

let test_bounded_tables () =
  let rng = W.Rng.create 12 in
  let flushes = ref 0 in
  for _ = 1 to 300 do
    let ast, input = Gen_ast.random_extended_case rng in
    let eng = Tiny.of_ast ast in
    (match oracle_divergence eng (Oracle.of_ast ast) input with
     | None -> ()
     | Some d -> Alcotest.failf "capped: %s on %S: %s" (Ast.to_pattern ast) input d);
    flushes := !flushes + Engine.flushes eng
  done;
  Alcotest.(check bool) "the caps were hit" true (!flushes > 0)

(* --- Algebraic identities as language equivalence ---------------------- *)

let inputs_for n =
  (* all strings over {a,b} up to length n, plus a few longer probes *)
  let rec go len acc =
    if len > n then acc
    else
      let ext = List.concat_map (fun s -> [ s ^ "a"; s ^ "b" ]) acc in
      go (len + 1) (acc @ List.filter (fun s -> String.length s = len) ext)
  in
  go 1 [ "" ] @ [ "aabba"; "ababab"; "bbbaaa" ]

let equiv_on name left right =
  let l = Engine.of_pattern left and r = Engine.of_pattern right in
  List.iter
    (fun input ->
      let lm = Engine.matches l input and rm = Engine.matches r input in
      if lm <> rm then
        Alcotest.failf "%s: %s vs %s differ on %S (%b vs %b)" name left right
          input lm rm;
      (* also compare full-string acceptance via match_at reaching EOI *)
      let full e = Engine.match_at e input 0 = Some (String.length input) in
      ignore (full l))
    (inputs_for 4)

let test_identities () =
  equiv_on "idempotence" "a*b&a*b" "a*b";
  equiv_on "double complement (language)" "(?~(?~a*b))" "a*b";
  equiv_on "De Morgan and" "(?~(a+&b+))" "(?~a+)|(?~b+)";
  equiv_on "De Morgan or" "(?~(a+|b+))" "(?~a+)&(?~b+)";
  equiv_on "absorption" "a+&(a+|b+)" "a+";
  (* (?~x+) is universal over the {a,b} probe inputs *)
  equiv_on "intersection with universe" "a*b&(?~x+)" "a*b"

(* --- Lowering vs the oracle: the mid-end pipeline end to end ----------- *)

module Differential = Alveare_test_support.Differential

(* Random extended patterns through [Compile.compile_ast] — whichever
   backend the elimination pipeline picks (rewritten ISA program or the
   derivative engine) must report the oracle's spans. Shares
   [check_extended_case] with the fuzzer (bin/alveare_fuzz --extended). *)
let test_lowering_differential () =
  let prop (ast, input) =
    match Differential.check_extended_case ast input with
    | [] -> true
    | f :: _ ->
      QCheck2.Test.fail_reportf "%a" Differential.pp_failure f
  in
  let cell =
    QCheck2.Test.make ~count:300 ~name:"lowering = derivative oracle"
      ~print:Gen_ast.print_ast_and_input Gen_ast.gen_extended_ast_and_input
      prop
  in
  QCheck2.Test.check_exn cell

(* Bounded seeded corpus of the same check, so CI covers the Rng-driven
   generator family the long-running fuzzer uses. *)
let test_lowering_corpus () =
  match
    Differential.run_extended_corpus ~count:150 ~seed:2024 ()
  with
  | [] -> ()
  | f :: _ as fs ->
    Alcotest.failf "%d divergence(s), first: %a" (List.length fs)
      Differential.pp_failure f

(* --- Policy workload: witness-planting contract ------------------------ *)

(* The policy sampler promises that [Sampler.sample] on any of its rules
   (which draws intersection witnesses from member 1 and skips
   zero-width nodes) yields a string the WHOLE rule matches exactly —
   that is what makes its planted bench streams ground truth. Checked
   here against the derivative engine for every family, many draws. *)
let test_policy_witnesses () =
  let rng = Alveare_workloads.Rng.create 77 in
  List.iter
    (fun pattern ->
      let ast = Desugar.pattern_exn ~extended:true pattern in
      let eng = Engine.of_ast ast in
      for _ = 1 to 5 do
        let w = Alveare_workloads.Sampler.sample rng ast in
        match Engine.match_at eng w 0 with
        | Some stop when stop = String.length w -> ()
        | got ->
          Alcotest.failf "policy witness %S of %s: match_at 0 = %s" w pattern
            (match got with
             | Some s -> string_of_int s
             | None -> "none")
      done)
    (Alveare_workloads.Policy.patterns rng 60)

(* --- Priority: intersection/complement are longest-preferring ---------- *)

let test_prefer_continue () =
  (* And wrapper keeps longest preference even with a FIRST-leaning body *)
  check_spans "(a|aa)&(a|aa)" "aa" [ (0, 2) ];
  (* ... while the bare alternation is FIRST *)
  check_spans ~extended:false "(a|aa)" "aa" [ (0, 1); (1, 2) ];
  (* double complement: language of r, longest preference *)
  check_spans "(?~(?~(a|aa)))" "aa" [ (0, 2) ]

let () =
  Alcotest.run "derivative"
    [ ( "plain",
        [ Alcotest.test_case "curated FIRST-vs-LONGEST corpus" `Quick
            test_plain_corpus;
          Alcotest.test_case "random differential vs backtrack" `Quick
            test_random_differential ] );
      ( "extended",
        [ Alcotest.test_case "intersection" `Quick test_intersection;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "lookahead" `Quick test_lookahead;
          Alcotest.test_case "lookbehind" `Quick test_lookbehind;
          Alcotest.test_case "lookaround edge cases" `Quick
            test_look_edge_cases ] );
      ( "lowering",
        [ Alcotest.test_case "random lowering vs oracle" `Quick
            test_lowering_differential;
          Alcotest.test_case "seeded lowering corpus" `Quick
            test_lowering_corpus;
          Alcotest.test_case "policy witness contract" `Quick
            test_policy_witnesses ] );
      ( "oracle",
        [ Alcotest.test_case "random extended vs oracle" `Quick
            test_oracle_extended;
          Alcotest.test_case "nested lookarounds vs oracle" `Quick
            test_oracle_nested;
          Alcotest.test_case "policy rules vs oracle" `Quick test_oracle_policy;
          Alcotest.test_case "more than 62 lookarounds vs oracle" `Quick
            test_oracle_wide_masks;
          Alcotest.test_case "bounded tables vs oracle" `Quick
            test_bounded_tables ] );
      ( "algebra",
        [ Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "prefer-continue priority" `Quick
            test_prefer_continue ] ) ]
