(* The @ambigcheck battery: the precise ambiguity analysis.

   Four layers of guarantee:
   - known classifications: a curated corpus of patterns whose
     worst-case class is understood by hand (including the shapes the
     old heuristics got wrong in both directions) classifies exactly;
   - witness soundness: every non-linear verdict's attack witness
     reproduces the claimed growth class on the cycle-level core via
     the pumping harness (test/support/pumping.ml) — the analysis may
     never claim an attack it cannot demonstrate;
   - totality: the analysis never raises, over generated ASTs
     (QCheck2) and all three workload samplers (600 rules);
   - admission polarity: the 600 workload rules all classify Linear,
     so the server gate built on these verdicts admits the entire
     serving corpus while rejecting the proven-exploitable patterns. *)

module A = Alveare_analysis.Ambiguity
module Lint = Alveare_analysis.Lint
module Compile = Alveare_compiler.Compile
module Spanned = Alveare_frontend.Spanned
module Ast = Alveare_frontend.Ast
module Rng = Alveare_workloads.Rng
module Pumping = Alveare_test_support.Pumping
module Gen_ast = Alveare_test_support.Gen_ast

let analyze_exn pat =
  match A.pattern pat with
  | Ok t -> t
  | Error e -> Alcotest.failf "%S failed to parse: %s" pat e

let verdict_str t = Fmt.str "%a" A.pp_verdict t.A.verdict

(* --- Known classifications --------------------------------------------- *)

let exponential_patterns =
  [ "(a+)+b"; "(a|a)*b"; "(a*)*b"; "(a|a)+b"; "(a{0,2})*b" ]

let polynomial_patterns = [ "a*a*c"; "a+a+b"; ".*a.*ac" ]

(* Linear for distinct reasons: plain patterns, bounded repeats,
   heuristic false positives, and ambiguous-but-unexploitable shapes
   (no continuation can ever fail, so the engine never backtracks
   expensively). *)
let linear_patterns =
  [ "abc"; "a+b"; "(a|b)c"; "[0-9]{1,3}"; "x{3,5}y";
    "(a|ab)c"; "(a|ab)+c"; "(a|ab)*c";
    "(a|a)*"; "(a+)+"; ".*a.*a";
    "(x{20,40}){20,40}" ]

let test_exponential () =
  List.iter
    (fun p ->
       let t = analyze_exn p in
       (match t.A.verdict with
        | A.Exponential -> ()
        | _ -> Alcotest.failf "%S: expected exponential, got %s" p
                 (verdict_str t));
       if t.A.witness = None then
         Alcotest.failf "%S: exponential verdict without witness" p)
    exponential_patterns

let test_polynomial () =
  List.iter
    (fun p ->
       let t = analyze_exn p in
       (match t.A.verdict with
        | A.Polynomial d when d >= 1 -> ()
        | _ -> Alcotest.failf "%S: expected polynomial, got %s" p
                 (verdict_str t));
       if t.A.witness = None then
         Alcotest.failf "%S: polynomial verdict without witness" p)
    polynomial_patterns

let test_linear () =
  List.iter
    (fun p ->
       let t = analyze_exn p in
       match t.A.verdict with
       | A.Linear -> ()
       | _ -> Alcotest.failf "%S: expected linear, got %s" p (verdict_str t))
    linear_patterns

(* The exact witness of every corpus verdict: prefix, pump, suffix and
   pump span. The analysis picks each byte and explores the product in
   a fixed order, so a change in byte choice, state numbering or search
   order shows here even when the verdict and the witness's validity
   stay the same. *)
let pinned_witnesses =
  [ ("(a+)+b", ("aa", "aa", "c", (1, 2)));
    ("(a|a)*b", ("a", "aa", "c", (1, 4)));
    ("(a*)*b", ("a", "a", "c", (1, 2)));
    ("(a|a)+b", ("aa", "aa", "c", (1, 4)));
    ("(a{0,2})*b", ("a", "aa", "c", (1, 2)));
    ("a*a*c", ("a", "a", "b", (0, 3)));
    ("a+a+b", ("aa", "aa", "c", (0, 3)));
    (".*a.*ac", ("a", "aa", "\n", (0, 4))) ]

(* Witnesses compared as ((prefix, pump), (suffix, (left, right))). *)
let witness_t =
  Alcotest.(option (pair (pair string string) (pair string (pair int int))))

let pinned (prefix, pump, suffix, span) = ((prefix, pump), (suffix, span))

let actual (t : A.t) =
  Option.map
    (fun (w : A.witness) ->
       pinned (w.A.prefix, w.A.pump, w.A.suffix, (w.A.pump_left, w.A.pump_right)))
    t.A.witness

let test_witnesses_pinned () =
  List.iter
    (fun p ->
       match List.assoc_opt p pinned_witnesses with
       | None -> Alcotest.failf "%S: no pinned witness" p
       | Some w ->
         Alcotest.check witness_t (p ^ " witness") (Some (pinned w))
           (actual (analyze_exn p)))
    (exponential_patterns @ polynomial_patterns)

(* Patterns that exhaust one search budget each, with the whole report
   pinned: the composite-edge cap ("((.*){0,3}?){3,}"), the cube budget
   of the pump-pair search ("(([b-df-h]{3,}){3,5}?)*?") and the product
   budget (seven "(a|a)*b*c*d*e*f*g*h*" before a "z"). The last one's
   witness comes from the product as the budget left it, and most of
   its transition pairs have disjoint labels, so it also pins that
   every pair is charged: charging only the pairs that share a byte
   stops the search later and moves the pump span to 121..124. *)
let budget_note = "a search budget was hit; findings may be incomplete"

let unexploitable_note =
  "ambiguous automaton, but no failing continuation validated a witness — \
   worst-case matching stays linear for this pattern in isolation"

let pinned_budget_cases =
  [ ("((.*){0,3}?){3,}", "linear", None, 8, 12,
     [ budget_note; unexploitable_note ]);
    ("(([b-df-h]{3,}){3,5}?)*?", "linear", None, 8, 20,
     [ budget_note; unexploitable_note ]);
    (String.concat "" (List.init 7 (fun _ -> "(a|a)*b*c*d*e*f*g*h*")) ^ "z",
     "exponential", Some ("a", "aa", "i", (61, 64)), 0, 64, [ budget_note ]) ]

let test_budget_pinned () =
  List.iter
    (fun (p, verdict, witness, ida_degree, states, notes) ->
       let t = analyze_exn p in
       Alcotest.(check string) (p ^ " verdict") verdict (verdict_str t);
       Alcotest.check witness_t (p ^ " witness") (Option.map pinned witness)
         (actual t);
       Alcotest.(check bool) (p ^ " eda") true t.A.eda;
       Alcotest.(check int) (p ^ " ida degree") ida_degree t.A.ida_degree;
       Alcotest.(check int) (p ^ " states") states t.A.states;
       Alcotest.(check bool) (p ^ " budget hit") true t.A.budget_hit;
       Alcotest.(check (list string)) (p ^ " notes") notes t.A.notes)
    pinned_budget_cases

(* Ambiguity facts survive an unexploitable (Linear) verdict — the
   gate ignores them but the report must still carry them. *)
let test_unexploitable_facts () =
  let t = analyze_exn "(a|a)*" in
  Alcotest.(check bool) "(a|a)* has EDA" true t.A.eda;
  let t = analyze_exn ".*a.*a" in
  Alcotest.(check bool) ".*a.*a has IDA" true (t.A.ida_degree >= 1)

(* --- Witness soundness on the core ------------------------------------- *)

let test_witnesses_validate () =
  List.iter
    (fun p ->
       let t = analyze_exn p in
       let c = Pumping.compile_for_attack p in
       match Pumping.validate c t with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%S: %s" p e)
    (exponential_patterns @ polynomial_patterns)

let test_linear_flat () =
  List.iter
    (fun p ->
       let c = Pumping.compile_for_attack p in
       match Pumping.validate_flat c (fun n -> String.make n 'a') with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%S: %s" p e)
    [ "abc"; "a+b"; "(a|ab)c"; "(a|ab)+c"; "(a|a)*"; "(a+)+" ]

(* --- Heuristic false positives cleared by the precise analysis --------- *)

(* The old heuristic gate rejected these (overlapping alternation
   under a variable quantifier); the precise analysis proves them
   linear, so they must carry no warning-severity diagnostic and pass
   the admission gate. The heuristic still fires — as Info. *)
let test_false_positive_corpus () =
  List.iter
    (fun p ->
       match Lint.pattern_full p with
       | Error e -> Alcotest.failf "%S: %s" p e
       | Ok (ds, t) ->
         (match t.A.verdict with
          | A.Linear -> ()
          | _ ->
            Alcotest.failf "%S: false-positive pattern classified %s" p
              (verdict_str t));
         if Lint.has_warnings ds then
           Alcotest.failf
             "%S: linear pattern carries a warning-severity diagnostic" p;
         if not (List.exists (fun d -> d.Lint.severity = Lint.Info) ds) then
           Alcotest.failf "%S: expected an advisory Info diagnostic" p)
    [ "(a|ab)+c"; "(a|ab)*c"; "(aa|aab)+x"; "(foo|foobar)+!" ]

(* Conversely, a true positive must carry exactly the precise Warning. *)
let test_precise_warning () =
  match Lint.pattern_full "(a+)+b" with
  | Error e -> Alcotest.fail e
  | Ok (ds, t) ->
    (match t.A.verdict with
     | A.Exponential -> ()
     | _ -> Alcotest.failf "(a+)+b classified %s" (verdict_str t));
    let warnings = List.filter (fun d -> d.Lint.severity = Lint.Warning) ds in
    (match warnings with
     | [ d ] ->
       Alcotest.(check string) "precise kind" "redos-exponential-backtracking"
         (Lint.kind_name d.Lint.kind)
     | _ ->
       Alcotest.failf "(a+)+b: expected exactly one warning, got %d"
         (List.length warnings))

(* --- Safe program fragments -------------------------------------------- *)

let test_safe_fragments () =
  let frag_len fs = List.fold_left (fun k (lo, hi) -> k + (hi - lo)) 0 fs in
  let check_invariants p (c : Compile.compiled) =
    let n = Alveare_isa.Program.length c.Compile.program in
    let rec ordered = function
      | (lo, hi) :: (((lo', _) :: _) as rest) ->
        lo >= 0 && hi <= n && lo < hi && hi <= lo' && ordered rest
      | [ (lo, hi) ] -> lo >= 0 && hi <= n && lo < hi
      | [] -> true
    in
    if not (ordered c.Compile.safe_fragments) then
      Alcotest.failf "%S: malformed fragment list" p
  in
  let check_exact p expected (c : Compile.compiled) =
    Alcotest.(check (list (pair int int))) (p ^ " fragments") expected
      c.Compile.safe_fragments
  in
  (* An unambiguous program is one whole safe fragment. *)
  List.iter
    (fun (p, expected) ->
       let c = Pumping.compile_for_attack p in
       check_invariants p c;
       check_exact p expected c;
       let n = Alveare_isa.Program.length c.Compile.program in
       if c.Compile.safe_fragments <> [ (0, n) ] then
         Alcotest.failf "%S: expected the whole program safe" p)
    [ ("abc", [ (0, 2) ]); ("a+b", [ (0, 4) ]); ("(a|b)c", [ (0, 6) ]);
      ("x{3,5}y", [ (0, 4) ]) ];
  (* An exploitable pattern's pump core must be excluded. *)
  List.iter
    (fun (p, expected) ->
       let c = Pumping.compile_for_attack p in
       check_invariants p c;
       check_exact p expected c;
       let n = Alveare_isa.Program.length c.Compile.program in
       if frag_len c.Compile.safe_fragments >= n then
         Alcotest.failf "%S: ambiguous core not excluded from fragments" p)
    [ ("(a+)+b", [ (4, 6) ]); ("a*a*c", [ (4, 6) ]); ("(a|a)*b", [ (6, 8) ]) ]

(* --- Totality and witness soundness over generated ASTs ---------------- *)

let qcheck_total =
  QCheck2.Test.make ~count:300 ~name:"analysis total over generated ASTs"
    Gen_ast.gen_ast ~print:Gen_ast.print_ast (fun ast ->
      let t = A.analyze (Spanned.of_ast ast) in
      (* Shape invariants, not just absence of exceptions. *)
      (match t.A.verdict with
       | A.Polynomial d when d < 1 ->
         QCheck2.Test.fail_reportf "polynomial degree %d < 1" d
       | (A.Exponential | A.Polynomial _) when t.A.witness = None ->
         QCheck2.Test.fail_report "non-linear verdict without witness"
       | _ -> ());
      true)

let qcheck_witness_sound =
  QCheck2.Test.make ~count:150
    ~name:"non-linear witnesses validate on the core"
    Gen_ast.gen_ast ~print:Gen_ast.print_ast (fun ast ->
      let t = A.analyze (Spanned.of_ast ast) in
      match t.A.verdict with
      | A.Linear -> true
      | A.Exponential | A.Polynomial _ ->
        (match
           Compile.compile_ast ~optimize:false
             ~pattern:(Ast.to_pattern ast) ast
         with
         | Error _ -> true (* unemittable AST: nothing to drive *)
         | Ok c ->
           (match Pumping.validate c t with
            | Ok () -> true
            | Error e ->
              QCheck2.Test.fail_reportf "%S: %s" (Ast.to_pattern ast) e)))

(* --- The 600-rule workload sweep --------------------------------------- *)

let sweep name patterns =
  Alcotest.test_case name `Quick (fun () ->
      let linear = ref 0 and poly = ref 0 and expo = ref 0 in
      List.iter
        (fun p ->
           let t = analyze_exn p in
           (match t.A.verdict with
            | A.Linear -> incr linear
            | A.Polynomial _ -> incr poly
            | A.Exponential -> incr expo);
           (* Every non-linear claim must come with a core-validated
              attack; none is expected on the serving corpus. *)
           match t.A.verdict with
           | A.Linear -> ()
           | _ ->
             let c = Pumping.compile_for_attack p in
             (match Pumping.validate c t with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%S: %s" p e))
        patterns;
      Alcotest.(check int) "sweep total" (List.length patterns)
        (!linear + !poly + !expo);
      (* The admission gate must admit the whole serving corpus. *)
      Alcotest.(check int) (name ^ " all admitted") (List.length patterns)
        !linear)

let powren () = Alveare_workloads.Powren.patterns (Rng.create 11) 200
let protomata () = Alveare_workloads.Protomata.patterns (Rng.create 12) 200
let snort () = Alveare_workloads.Snort.patterns (Rng.create 13) 200

let () =
  Alcotest.run "ambiguity"
    [ ( "known classifications",
        [ Alcotest.test_case "exponential corpus" `Quick test_exponential;
          Alcotest.test_case "polynomial corpus" `Quick test_polynomial;
          Alcotest.test_case "linear corpus" `Quick test_linear;
          Alcotest.test_case "unexploitable facts survive" `Quick
            test_unexploitable_facts;
          Alcotest.test_case "witnesses pinned" `Quick test_witnesses_pinned;
          Alcotest.test_case "budget cases pinned" `Quick test_budget_pinned ] );
      ( "witness soundness",
        [ Alcotest.test_case "witnesses validate on core" `Quick
            test_witnesses_validate;
          Alcotest.test_case "linear corpus is flat" `Quick test_linear_flat ]
      );
      ( "lint integration",
        [ Alcotest.test_case "heuristic false positives cleared" `Quick
            test_false_positive_corpus;
          Alcotest.test_case "precise warning on true positive" `Quick
            test_precise_warning ] );
      ( "safe fragments",
        [ Alcotest.test_case "fragment invariants" `Quick test_safe_fragments ]
      );
      ( "generated",
        [ QCheck_alcotest.to_alcotest qcheck_total;
          QCheck_alcotest.to_alcotest qcheck_witness_sound ] );
      ( "workload sweep",
        [ sweep "powren" (powren ());
          sweep "protomata" (protomata ());
          sweep "snort" (snort ()) ] ) ]
