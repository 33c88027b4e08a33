(* Pre-decoded plan executor (Alveare_arch.Plan) versus the
   instruction-at-a-time interpreter it replaced (the test oracle
   Core_oracle): the two must agree on every span, every stats field and
   every trace event, bit for bit, on every scan mode — that equality is
   what lets the plan path be the only executor in the library. Backed
   by qcheck properties over the shared random-AST generators, plus unit
   tests for the bitset edge cases the lowering must fold correctly
   (negated classes at end-of-input, empty OR, inverted RANGE), for
   scratch-state reuse and for the context arena's memory bound. The
   [@plancheck] dune alias runs exactly this binary. *)

module Compile = Alveare_compiler.Compile
module Core = Alveare_arch.Core
module Plan = Alveare_arch.Plan
module Scan_cursor = Alveare_arch.Scan_cursor
module Trace = Alveare_arch.Trace
module Dfa = Alveare_arch.Dfa_overlay
module Core_oracle = Alveare_test_support.Core_oracle
module I = Alveare_isa.Instruction
module S = Alveare_engine.Semantics
module Gen_ast = Alveare_test_support.Gen_ast

let check = Alcotest.(check bool)

let show_spans spans = Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) spans

let show_stats (s : Core.stats) =
  Fmt.str
    "cyc=%d ins=%d rb=%d push=%d depth=%d scan=%d att=%d seen=%d pruned=%d \
     hits=%d"
    s.Core.cycles s.Core.instructions s.Core.rollbacks s.Core.stack_pushes
    s.Core.max_stack_depth s.Core.scan_cycles s.Core.attempts
    s.Core.offsets_scanned s.Core.offsets_pruned s.Core.match_count

(* Run one scan on the plan path and on the oracle; fail loudly on any
   span or counter drift. *)
let agree name plan_run oracle_run =
  let ps = Core.fresh_stats () in
  let os = Core.fresh_stats () in
  let pm = plan_run ~stats:ps in
  let om = oracle_run ~stats:os in
  if pm <> om then
    QCheck2.Test.fail_reportf "%s spans: plan %s oracle %s" name
      (show_spans pm) (show_spans om);
  if ps <> os then
    QCheck2.Test.fail_reportf "%s stats:@.  plan:   %s@.  oracle: %s" name
      (show_stats ps) (show_stats os)

(* Sorted strict subset of offsets 0..n, deterministic per case: keeps
   the candidate-array scan (and its monotone cursor) honest without a
   second generator. *)
let some_candidates input =
  let n = String.length input in
  Array.of_list
    (List.filter (fun i -> i mod 3 <> 1) (List.init (n + 1) (fun i -> i)))

let prop_plan_equals_oracle =
  QCheck2.Test.make ~count:400 ~name:"plan == oracle (spans and all stats)"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast input in
      match Compile.compile_ast ast with
      | Error _ -> true (* jump-field overflow: legitimately uncompilable *)
      | Ok c ->
        let program = c.Compile.program in
        let plan = c.Compile.plan in
        let prefilter = c.Compile.prefilter in
        let candidates = some_candidates input in
        agree "find_all dense"
          (fun ~stats -> Core.find_all ~stats ~plan program input)
          (fun ~stats -> Core_oracle.find_all ~stats program input);
        agree "find_all prefilter"
          (fun ~stats -> Core.find_all ~stats ~plan ~prefilter program input)
          (fun ~stats -> Core_oracle.find_all ~stats ~prefilter program input);
        agree "candidates"
          (fun ~stats ->
            Core.find_all_candidates ~stats ~plan ~candidates program input)
          (fun ~stats ->
            Core_oracle.find_all_candidates ~stats ~candidates program input);
        List.iter
          (fun from ->
            agree
              (Printf.sprintf "search from=%d" from)
              (fun ~stats ->
                Option.to_list (Core.search ~stats ~plan ~from program input))
              (fun ~stats ->
                Option.to_list (Core_oracle.search ~stats ~from program input)))
          [ 0; String.length input / 2; String.length input ];
        true)

(* Traced scans: the plan path's events equal the oracle's one for one,
   dense and prefiltered, and with the compiled overlay family given —
   a traced scan must leave the overlay untouched (its table records no
   cycles), which the family's counters show. *)
let show_event = function
  | Some e -> Fmt.str "%a" Trace.pp_event e
  | None -> "(end of trace)"

let rec first_divergence i = function
  | [], [] -> None
  | x :: xs, y :: ys when x = y -> first_divergence (i + 1) (xs, ys)
  | xs, ys -> Some (i, List.nth_opt xs 0, List.nth_opt ys 0)

let prop_trace_equals_oracle =
  QCheck2.Test.make ~count:300
    ~name:"traced plan == traced oracle (events, spans and all stats)"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast input in
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let program = c.Compile.program in
        let overlay () = Option.map Dfa.family_stats c.Compile.dfa in
        List.iter
          (fun (name, prefilter, dfa) ->
            let pt = Trace.create () and ot = Trace.create () in
            let before = overlay () in
            agree name
              (fun ~stats ->
                Core.find_all ~stats ~trace:pt ?prefilter ~plan:c.Compile.plan
                  ?dfa program input)
              (fun ~stats ->
                Core_oracle.find_all ~stats ~trace:ot ?prefilter program input);
            if overlay () <> before then
              QCheck2.Test.fail_reportf "%s: traced scan engaged the overlay"
                name;
            match first_divergence 0 (Trace.events pt, Trace.events ot) with
            | None -> ()
            | Some (i, p, o) ->
              QCheck2.Test.fail_reportf
                "%s trace diverges at event %d:@.  plan:   %s@.  oracle: %s"
                name i (show_event p) (show_event o))
          [ ("dense", None, None);
            ("prefilter", Some c.Compile.prefilter, None);
            ("dense+dfa", None, c.Compile.dfa);
            ("prefilter+dfa", Some c.Compile.prefilter, c.Compile.dfa) ];
        true)

(* The candidate scan with ALL offsets as candidates is the dense scan:
   same spans (stats differ only via the prefilter gate, so compare
   matches). *)
let prop_candidates_complete =
  QCheck2.Test.make ~count:200 ~name:"all-offsets candidate scan = dense scan"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast input in
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let all =
          Array.init (String.length input + 1) (fun i -> i)
        in
        let dense = Core.find_all ~plan:c.Compile.plan c.Compile.program input in
        let cand =
          Core.find_all_candidates ~plan:c.Compile.plan ~candidates:all
            c.Compile.program input
        in
        if dense <> cand then
          QCheck2.Test.fail_reportf "dense %s candidates %s" (show_spans dense)
            (show_spans cand);
        true)

(* --- bitset edge cases -------------------------------------------------- *)

(* A negated class must still FAIL at end-of-input: negation applies to
   the membership test, not to the one-byte data requirement. *)
let test_negated_class_at_eoi () =
  let c = Compile.compile_exn "[^a]" in
  check "plan: no char left" true
    (Core.match_at ~plan:c.Compile.plan c.Compile.program "x" 1 = None);
  check "oracle agrees" true
    (Core_oracle.match_at c.Compile.program "x" 1 = None);
  check "plan: in bounds" true
    (Core.match_at ~plan:c.Compile.plan c.Compile.program "x" 0 = Some 1);
  (* whole-string scan on input ending right before the class byte *)
  let c2 = Compile.compile_exn "a[^b]" in
  let spans = Core.find_all ~plan:c2.Compile.plan c2.Compile.program "za" in
  check "trailing 'a' cannot complete" true (spans = []);
  let spans = Core.find_all ~plan:c2.Compile.plan c2.Compile.program "zac" in
  check "completes in bounds" true (spans = [ { S.start = 1; stop = 3 } ])

(* Degenerate instructions are not emitted by the compiler and are
   rejected by the verifier, but the lowering must still mirror the
   interpreter's datapath on them (of_program_unchecked is a public
   loader entry). Hand-built records bypass the builder checks. *)
let raw_base ?(neg = false) op chars =
  { I.opn = false; neg; base = Some op; close = None;
    reference = I.Ref_chars chars }

let run_plan program input start =
  let plan = Plan.of_program_unchecked program in
  Plan.run ~stats:(Core.fresh_stats ()) plan (Plan.create_scratch ()) input
    start

let test_empty_or () =
  let program = [| raw_base I.Or ""; I.eor |] in
  (* no reference char can equal the data char: never matches *)
  check "empty OR fails" true (run_plan program "abc" 0 = None);
  let negated = [| raw_base ~neg:true I.Or ""; I.eor |] in
  (* negated empty OR accepts any in-bounds byte, consumes one *)
  check "negated empty OR matches" true (run_plan negated "abc" 0 = Some 1);
  check "negated empty OR still fails at EoI" true
    (run_plan negated "abc" 3 = None)

let test_inverted_range () =
  (* lo > hi: the pair denotes the empty set *)
  let program = [| raw_base I.Range "ba"; I.eor |] in
  check "inverted RANGE fails" true (run_plan program "a" 0 = None);
  check "inverted RANGE fails on hi" true (run_plan program "b" 0 = None);
  let negated = [| raw_base ~neg:true I.Range "ba"; I.eor |] in
  check "negated inverted RANGE matches all" true
    (run_plan negated "a" 0 = Some 1);
  check "negated inverted RANGE fails at EoI" true
    (run_plan negated "a" 1 = None)

let test_bad_op_raises () =
  (* base and close both absent but not EoR: the interpreter raises
     Malformed at execution; the plan's poisoned op must do the same. *)
  let rogue =
    { I.opn = false; neg = true; base = None; close = None;
      reference = I.Ref_none }
  in
  let program = [| rogue; I.eor |] in
  check "poisoned op raises Malformed" true
    (match run_plan program "a" 0 with
     | exception Core.Exec_error (Core.Malformed _) -> true
     | _ -> false)

let test_stack_overflow_parity () =
  let c = Compile.compile_exn "(a|b|c)*x" in
  let config = { Core.default_config with Core.stack_capacity = Some 2 } in
  let input = String.make 24 'a' in
  let boom scan =
    match scan () with
    | exception Core.Exec_error (Core.Stack_overflow n) -> Some n
    | _ -> None
  in
  let plan =
    boom (fun () ->
        Core.find_all ~config ~plan:c.Compile.plan c.Compile.program input)
  in
  let oracle =
    boom (fun () -> Core_oracle.find_all ~config c.Compile.program input)
  in
  check "both paths overflow identically" true (plan = oracle);
  check "overflow reported" true (plan <> None)

(* --- scratch reuse ------------------------------------------------------ *)

(* One scratch shared by every scan below, across patterns and tests. *)
let shared_scratch = Plan.create_scratch ()

(* A dense scan on one cursor, offering every offset. *)
let cursor_scan ~stats plan input =
  let c =
    Scan_cursor.start ~dfa:None ~config:Core.default_config ~stats ~all:true
      plan shared_scratch input 0
  in
  let rec go offset =
    if offset <= String.length input then go (Scan_cursor.offer c offset)
  in
  go 0;
  Scan_cursor.finish c

let test_scratch_reuse () =
  let patterns =
    [ "ab+c"; "(a|b)*c"; "[^a]b{2,4}"; "a"; "(ab|cd)+"; "[a-h]*x?" ]
  in
  let inputs =
    [ ""; "a"; "abc"; "abbbbc"; String.make 64 'a';
      "abababcdcdabbc"; String.concat "" (List.init 16 (fun _ -> "abcd")) ]
  in
  List.iter
    (fun p ->
      let c = Compile.compile_exn p in
      List.iter
        (fun input ->
          let fresh_stats = Core.fresh_stats () in
          let fresh =
            Core.find_all ~stats:fresh_stats ~plan:c.Compile.plan
              c.Compile.program input
          in
          let reused_stats = Core.fresh_stats () in
          let reused = cursor_scan ~stats:reused_stats c.Compile.plan input in
          if fresh <> reused || fresh_stats <> reused_stats then
            Alcotest.failf
              "scratch reuse diverged on %s / %S: %s vs %s (%s | %s)" p input
              (show_spans fresh) (show_spans reused) (show_stats fresh_stats)
              (show_stats reused_stats))
        inputs)
    patterns

(* Deep nesting grows the scratch arrays mid-attempt; growth must be
   invisible in results and stats. *)
let test_scratch_growth () =
  let c = Compile.compile_exn "(a|b)*" in
  let input = String.make 512 'a' in
  let s1 = Core.fresh_stats () in
  let r1 = cursor_scan ~stats:s1 c.Compile.plan input in
  let s2 = Core.fresh_stats () in
  let r2 = Core_oracle.find_all ~stats:s2 c.Compile.program input in
  check "growth: spans equal" true (r1 = r2);
  check "growth: stats equal" true (s1 = s2);
  check "growth: deep stack seen" true (s1.Core.max_stack_depth > 64)

(* The context arena grows with the live stack depth, not with an
   attempt's total work: a backtracking attempt rewinds the arena past
   every frame of each path it abandons. This scan reaches stack depth
   20 but abandons millions of frames; keeping them would allocate
   about 800 MB. *)
let test_arena_bounded_by_depth () =
  let c = Compile.compile_exn "(.+)*?[e-g]hd" in
  let input = "hhaffdadagdhcaeebdhd" in
  let stats = Core.fresh_stats () in
  let before = Gc.allocated_bytes () in
  ignore (Core.find_all ~stats ~plan:c.Compile.plan c.Compile.program input);
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 32e6 then
    Alcotest.failf "scan allocated %.0f MB (max stack depth %d)"
      (allocated /. 1e6) stats.Core.max_stack_depth

(* A scan that attempts nothing pays for no scratch arrays: they come
   at the first push or controller frame. Most rules of a large set get
   no candidate in a chunk, so an eager scratch (12 arrays of 64 words)
   would be most of what such a scan allocates. *)
let test_scratch_on_first_use () =
  let c = Compile.compile_exn "ab+c" in
  let input = String.make 16384 'x' in
  let scan () =
    Core.find_all_candidates ~stats:(Core.fresh_stats ()) ~candidates:[||]
      ~plan:c.Compile.plan ?dfa:c.Compile.dfa c.Compile.program input
  in
  ignore (scan ());
  let w0 = Gc.minor_words () in
  let spans = scan () in
  let words = Gc.minor_words () -. w0 in
  check "no spans" true (spans = []);
  if words >= 100.0 then
    Alcotest.failf "a scan with no candidates allocated %.0f minor words" words

(* --- leading-filter table ---------------------------------------------- *)

let test_leading_variants () =
  let lead p =
    Plan.leading (Compile.compile_exn p).Compile.plan
  in
  (match lead "abc" with
   | Plan.Lead_literal l -> check "literal lead" true (String.length l >= 1)
   | _ -> Alcotest.fail "expected Lead_literal for 'abc'");
  (match lead "[a-c]x" with
   | Plan.Lead_set bits ->
     check "set has a" true (Plan.set_mem bits 'a');
     check "set has c" true (Plan.set_mem bits 'c');
     check "set lacks d" false (Plan.set_mem bits 'd')
   | _ -> Alcotest.fail "expected Lead_set for '[a-c]x'");
  (match lead "a*b" with
   | Plan.Lead_none -> ()
   | _ -> Alcotest.fail "expected Lead_none for quantified head")

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_plan_equals_oracle; prop_trace_equals_oracle;
      prop_candidates_complete ]

let () =
  Alcotest.run "plan"
    [ ("differential", qsuite);
      ( "bitset-edges",
        [ Alcotest.test_case "negated class at EoI" `Quick
            test_negated_class_at_eoi;
          Alcotest.test_case "empty OR" `Quick test_empty_or;
          Alcotest.test_case "inverted RANGE" `Quick test_inverted_range;
          Alcotest.test_case "poisoned op raises" `Quick test_bad_op_raises;
          Alcotest.test_case "stack overflow parity" `Quick
            test_stack_overflow_parity ] );
      ( "scratch",
        [ Alcotest.test_case "reuse across patterns" `Quick test_scratch_reuse;
          Alcotest.test_case "growth mid-attempt" `Quick test_scratch_growth;
          Alcotest.test_case "arena bounded by depth" `Quick
            test_arena_bounded_by_depth;
          Alcotest.test_case "allocated on first use" `Quick
            test_scratch_on_first_use ] );
      ( "leading",
        [ Alcotest.test_case "filter variants" `Quick test_leading_variants ] )
    ]
