(* Lazy-DFA overlay (Alveare_arch.Dfa_overlay) versus the plain plan
   executor: table-per-byte execution of the backtracking-free fragments
   must reproduce the plan path bit for bit — every span AND every stats
   counter, on every scan mode, for every attempt offset — because the
   overlay ships as the default executor for covered patterns. Backed by
   qcheck properties over the shared random-AST generators plus unit
   tests for the seams: the bail handoff at fragment boundaries, the
   flush-and-refill path under an artificially tiny arena, streaming
   resume across consecutive slices, the guards that keep the overlay
   off mismatched plans and finite-stack configs, and its engagement from
   the ruleset and façade scans. The [@dfacheck] dune alias runs exactly
   this binary. *)

module Compile = Alveare_compiler.Compile
module Core = Alveare_arch.Core
module Plan = Alveare_arch.Plan
module Dfa = Alveare_arch.Dfa_overlay
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

(* Every overlay counter of [b] is at least that of [a]. *)
let no_lower (a : Dfa.cache_stats) (b : Dfa.cache_stats) =
  b.states_built >= a.states_built && b.transitions_built >= a.transitions_built
  && b.hits >= a.hits && b.misses >= a.misses && b.flushes >= a.flushes
  && b.bails >= a.bails && b.dfa_attempts >= a.dfa_attempts
  && b.refused >= a.refused

(* One scan with the overlay and one without; any span or counter drift
   is a test failure with both sides printed. *)
let scan_agrees ?fail name fam run =
  let fail =
    match fail with
    | Some f -> f
    | None -> fun fmt -> Alcotest.failf ("%s: " ^^ fmt) name
  in
  let ds = Core.fresh_stats () in
  let ps = Core.fresh_stats () in
  let dm = run ~stats:ds ~dfa:(Some fam) in
  let pm = run ~stats:ps ~dfa:None in
  if dm <> pm then fail "spans: dfa %s plan %s" (show_spans dm) (show_spans pm);
  if ds <> ps then
    fail "stats:@.  dfa:  %s@.  plan: %s" (show_stats ds) (show_stats ps)

(* Per-attempt parity at EVERY offset, through the public per-attempt
   entry point, inside one session (run_acquired falls back to the plan
   path internally on a bail). *)
let attempts_agree ?fail name fam plan input =
  let fail =
    match fail with
    | Some f -> f
    | None -> fun fmt -> Alcotest.failf ("%s: " ^^ fmt) name
  in
  let t = Dfa.get fam in
  let config = Core.default_config in
  let scratch = Plan.create_scratch () in
  if not (Dfa.acquire t ~config) then Alcotest.failf "%s: instance held" name;
  Fun.protect ~finally:(fun () -> Dfa.release t) @@ fun () ->
  for start = 0 to String.length input do
    let ds = Core.fresh_stats () in
    let ps = Core.fresh_stats () in
    let dr = Dfa.run_acquired t ~config ~stats:ds scratch input start in
    let pr = Plan.run ~stats:ps plan scratch input start in
    if dr <> pr then
      fail "offset %d: dfa %s plan %s" start
        (match dr with Some e -> string_of_int e | None -> "none")
        (match pr with Some e -> string_of_int e | None -> "none");
    if ds <> ps then
      fail "offset %d stats:@.  dfa:  %s@.  plan: %s" start (show_stats ds)
        (show_stats ps)
  done

(* --- qcheck: random ASTs, spans + stats + per-offset attempts ---------- *)

let prop_dfa_equals_plan =
  QCheck2.Test.make ~count:400
    ~name:"dfa overlay == plan (spans, all stats, every offset)"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      match Compile.compile_ast ast with
      | Error _ -> true (* jump-field overflow: legitimately uncompilable *)
      | Ok c ->
        (match c.Compile.dfa with
         | None -> true (* trivial fragments: overlay correctly absent *)
         | Some fam ->
           let fail fmt = QCheck2.Test.fail_reportf fmt in
           scan_agrees ~fail "dense" fam (fun ~stats ~dfa ->
               Core.find_all ~stats ?dfa ~plan:c.Compile.plan
                 c.Compile.program input);
           scan_agrees ~fail "prefilter" fam (fun ~stats ~dfa ->
               Core.find_all ~stats ?dfa ~plan:c.Compile.plan
                 ~prefilter:c.Compile.prefilter c.Compile.program input);
           attempts_agree ~fail "attempt" fam c.Compile.plan input;
           true))

(* Tiny arena: 2 states force constant flush-and-refill; results must
   not move. (The budget floor in the implementation is 2.) *)
let prop_tiny_budget =
  QCheck2.Test.make ~count:200
    ~name:"2-state arena (constant flushing) == plan"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        (match
           Dfa.family ~max_states:2 ~fragments:c.Compile.safe_fragments
             c.Compile.plan
         with
         | None -> true
         | Some fam ->
           let fail fmt = QCheck2.Test.fail_reportf fmt in
           scan_agrees ~fail "tiny-dense" fam (fun ~stats ~dfa ->
               Core.find_all ~stats ?dfa ~plan:c.Compile.plan
                 c.Compile.program input);
           attempts_agree ~fail "tiny-attempt" fam c.Compile.plan input;
           true))

(* --- fragment-boundary handoff ----------------------------------------- *)

(* A pattern whose overlapping alternative classes make a stale
   speculation snapshot actually consume: the overlay must hand those
   attempts back to Plan.run (a counted bail), with results unmoved. *)
let test_fragment_handoff () =
  let c = Compile.compile_exn "([ab]x|[bc]y)" in
  let fam =
    match c.Compile.dfa with
    | Some fam -> fam
    | None -> Alcotest.fail "expected an overlay family"
  in
  let before = (Dfa.family_stats fam).Dfa.bails in
  let input = "bxbyaxcybybxayczbx" in
  scan_agrees "handoff" fam (fun ~stats ~dfa ->
      Core.find_all ~stats ?dfa ~plan:c.Compile.plan c.Compile.program input);
  attempts_agree "handoff" fam c.Compile.plan input;
  let after = (Dfa.family_stats fam).Dfa.bails in
  check "bail path exercised" true (after > before)

(* --- tiny budget flushes, counted -------------------------------------- *)

let test_tiny_budget_flushes () =
  let c = Compile.compile_exn "([a-c]|[d-f]|[g-i]|[j-m]){4,}[n-z]" in
  let fam =
    match
      Dfa.family ~max_states:2 ~fragments:c.Compile.safe_fragments
        c.Compile.plan
    with
    | Some fam -> fam
    | None -> Alcotest.fail "expected an overlay family"
  in
  let input = "abcmz lkjihgfedcban abcdn" in
  scan_agrees "tiny" fam (fun ~stats ~dfa ->
      Core.find_all ~stats ?dfa ~plan:c.Compile.plan c.Compile.program input);
  let s = Dfa.family_stats fam in
  check "flushes happened" true (s.Dfa.flushes > 0);
  check "states stayed within budget" true (s.Dfa.states_built > 0)

(* The cell budget (32 x max_states cells built) runs out before the
   state arena only on a plan of more than 32 byte classes. Each of the
   literal's 37 distinct bytes is a class of its own (39 classes in
   all); the input, printable and without a 'z', keeps every attempt in
   the four states before the literal, whose rows take 152 cells
   against a budget of 128. So the 4-state arena never fills, and every
   flush (21 on this input) is the cell budget's. *)
let test_cell_budget_flushes () =
  let c = Compile.compile_exn "[!-~]{3}z0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  let fam =
    match
      Dfa.family ~max_states:4 ~fragments:c.Compile.safe_fragments
        c.Compile.plan
    with
    | Some fam -> fam
    | None -> Alcotest.fail "expected an overlay family"
  in
  let rng = Random.State.make [| 5 |] in
  let input =
    String.init 4096 (fun _ ->
        match Char.chr (33 + Random.State.int rng 94) with
        | 'z' -> 'y'
        | b -> b)
  in
  let before = Dfa.family_stats fam in
  scan_agrees "cells" fam (fun ~stats ~dfa ->
      Core.find_all ~stats ?dfa ~plan:c.Compile.plan c.Compile.program input);
  attempts_agree "cells" fam c.Compile.plan input;
  let after = Dfa.family_stats fam in
  check "flushes happened" true (after.Dfa.flushes > before.Dfa.flushes)

(* --- streaming resume --------------------------------------------------- *)

(* The family persists across scans: a stream scanned as consecutive
   32-byte slices, one [Core.find_all] each, must report the same spans
   with the overlay on or off, and the later slices must run mostly on
   transitions the earlier ones built (table hits strictly dominate
   misses on this repetitive corpus). *)
let test_streaming_resume () =
  let c = Compile.compile_exn "ab+c" in
  let fam =
    match c.Compile.dfa with
    | Some fam -> fam
    | None -> Alcotest.fail "expected an overlay family"
  in
  let chunk = "xxabbcyyabczz" in
  let input = String.concat "" (List.init 24 (fun _ -> chunk)) in
  let n = String.length input in
  let slices =
    List.init ((n + 31) / 32) (fun k ->
        String.sub input (k * 32) (min 32 (n - (k * 32))))
  in
  let scan dfa =
    let stats = Core.fresh_stats () in
    let spans =
      List.concat_map
        (fun slice ->
           Core.find_all ~stats ?dfa ~plan:c.Compile.plan c.Compile.program
             slice)
        slices
    in
    (spans, stats)
  in
  let before = Dfa.family_stats fam in
  let with_dfa, dfa_stats = scan (Some fam) in
  let without, plan_stats = scan None in
  check "sliced" true (List.length slices > 4);
  check "matches found" true (with_dfa <> []);
  if with_dfa <> without then
    Alcotest.failf "sliced spans: dfa %s plan %s" (show_spans with_dfa)
      (show_spans without);
  if dfa_stats <> plan_stats then
    Alcotest.failf "sliced stats: dfa %s plan %s" (show_stats dfa_stats)
      (show_stats plan_stats);
  let after = Dfa.family_stats fam in
  let hits = after.Dfa.hits - before.Dfa.hits in
  let misses = after.Dfa.misses - before.Dfa.misses in
  check "table reused across slices" true (hits > misses)

(* --- guards -------------------------------------------------------------- *)

(* A family built from a different plan value must be silently ignored —
   never consulted with mismatched ops. *)
let test_mismatched_plan_ignored () =
  let c = Compile.compile_exn "ab+c" in
  let other = Compile.compile_exn "xy*z" in
  let fam = Option.get other.Compile.dfa in
  let before = Dfa.family_stats fam in
  let s1 = Core.fresh_stats () in
  let r1 =
    Core.find_all ~stats:s1 ~plan:c.Compile.plan ~dfa:fam c.Compile.program
      "xabbcx"
  in
  let s2 = Core.fresh_stats () in
  let r2 =
    Core.find_all ~stats:s2 ~plan:c.Compile.plan c.Compile.program "xabbcx"
  in
  check "spans unchanged" true (r1 = r2);
  check "stats unchanged" true (s1 = s2);
  let after = Dfa.family_stats fam in
  check "foreign family untouched" true
    (after.Dfa.dfa_attempts = before.Dfa.dfa_attempts
     && after.Dfa.bails = before.Dfa.bails)

(* Finite stack capacity must keep the overlay out entirely (overflow
   raises the plan path's exact error), while results stay correct. *)
let test_finite_stack_bypasses () =
  let c = Compile.compile_exn "a(b|c)*d" in
  let fam = Option.get c.Compile.dfa in
  let config = { Core.default_config with Core.stack_capacity = Some 1024 } in
  let before = Dfa.family_stats fam in
  let s1 = Core.fresh_stats () in
  let r1 =
    Core.find_all ~config ~stats:s1 ~plan:c.Compile.plan ~dfa:fam
      c.Compile.program "xabcbcdx"
  in
  let s2 = Core.fresh_stats () in
  let r2 =
    Core.find_all ~config ~stats:s2 ~plan:c.Compile.plan c.Compile.program
      "xabcbcdx"
  in
  check "spans equal" true (r1 = r2);
  check "stats equal" true (s1 = s2);
  let after = Dfa.family_stats fam in
  check "overlay never engaged" true
    (after.Dfa.dfa_attempts = before.Dfa.dfa_attempts
     && after.Dfa.bails = before.Dfa.bails)

(* The overlay engages wherever it can, with no switch: a ruleset scan
   and a façade scan of a pattern with a family both run attempts on
   its table. The family's own counters are read, not the process-wide
   totals, which drop whenever another test's family is collected. Both
   entry points compile through the shared cache, so they share the
   family read here. *)
let test_engages_without_switch () =
  let module Ruleset = Alveare_compiler.Ruleset in
  let pattern = "ab+c" in
  let fam = Option.get (Compile.cached_exn pattern).Compile.dfa in
  let input = String.concat "" (List.init 8 (fun _ -> "xxabbbcyyabczz")) in
  let served_by_table scan =
    let before = Dfa.family_stats fam in
    scan ();
    let after = Dfa.family_stats fam in
    after.Dfa.hits > before.Dfa.hits
  in
  let rs = Ruleset.compile_exn [ ("r", pattern) ] in
  check "Ruleset.scan" true
    (served_by_table (fun () -> ignore (Ruleset.scan rs input)));
  check "Alveare.find_all" true
    (served_by_table (fun () -> ignore (Alveare.find_all pattern input)))

(* A scan that finds its family's instance held — here by a session the
   same thread still has open — is refused: counted once, and run on
   the plan path with the plan path's spans and stats. *)
let test_refusal_counted () =
  let c = Compile.compile_exn "ab+c" in
  let fam = Option.get c.Compile.dfa in
  let d = Dfa.get fam in
  check "session taken" true (Dfa.acquire d ~config:Core.default_config);
  Fun.protect ~finally:(fun () -> Dfa.release d) (fun () ->
      let before = Dfa.family_stats fam in
      scan_agrees "refused" fam (fun ~stats ~dfa ->
          Core.find_all ~stats ?dfa ~plan:c.Compile.plan c.Compile.program
            "xxabbcyyabczz");
      let after = Dfa.family_stats fam in
      Alcotest.(check int) "one refusal" (before.Dfa.refused + 1)
        after.Dfa.refused;
      check "no attempt on the table" true
        (after.Dfa.dfa_attempts = before.Dfa.dfa_attempts))

(* A ruleset listing a first-set pattern twice scans it with one cursor,
   so no cursor of the sweep is refused the family's instance. *)
let test_repeated_rule_not_refused () =
  let module Ruleset = Alveare_compiler.Ruleset in
  let pattern = "[a-z]{2,5}x" in
  let rs =
    Ruleset.compile_exn ~cache:(Compile.create_cache ())
      [ ("a", pattern); ("b", pattern) ]
  in
  let fam = Option.get rs.Ruleset.rules.(0).Ruleset.compiled.Compile.dfa in
  let before = Dfa.family_stats fam in
  let report = Ruleset.scan rs "aax then zzzzx, qrx and abcdex" in
  let after = Dfa.family_stats fam in
  check "both rules hit" true (List.length report.Ruleset.hits = 8);
  check "attempts on the table" true
    (after.Dfa.dfa_attempts > before.Dfa.dfa_attempts);
  Alcotest.(check int) "no refusal" before.Dfa.refused after.Dfa.refused

(* Instance churn: a domain keeps at most 128 instances, evicting the
   least recently used, so every scan of a 600-rule set still creates
   instances and drops older ones, and a small minor heap and a full
   major collection between scans collect them often. No scan may
   raise, and the process-wide counters never go down — read after the
   scan, after one major cycle and after the full collection. *)
let test_instance_churn () =
  let module W = Alveare_workloads in
  let module Ruleset = Alveare_compiler.Ruleset in
  let pats =
    W.Snort.patterns (W.Rng.create 7) 200
    @ W.Powren.patterns (W.Rng.create 8) 200
    @ W.Protomata.patterns (W.Rng.create 9) 200
  in
  let rs =
    Ruleset.compile_exn ~cache:(Compile.create_cache ~capacity:1024 ())
      (List.mapi (fun i p -> (string_of_int i, p)) pats)
  in
  let asts =
    List.filteri (fun i _ -> i mod 10 = 0) pats
    |> List.map (fun p -> Alveare_frontend.Desugar.pattern_exn p)
  in
  let input =
    (W.Streams.generate ~rng:(W.Rng.create 10) ~size:2048
       ~background:W.Snort.background ~plant:(W.Streams.plant_of_patterns ~asts)
       ())
      .W.Streams.data
  in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4096 };
  Fun.protect ~finally:(fun () -> Gc.set gc) (fun () ->
      let last = ref (Dfa.global_stats ()) in
      let read () =
        let now = Dfa.global_stats () in
        check "global stats never decrease" true (no_lower !last now);
        last := now
      in
      for _ = 1 to 10 do
        ignore (Ruleset.scan rs input);
        read ();
        Gc.major ();
        read ();
        Gc.full_major ();
        read ()
      done;
      check "the overlay ran" true (!last.Dfa.dfa_attempts > 0))

(* The totals keep the counts of collected families: 200 one-off
   patterns, compiled uncached and scanned once each, so the domain's
   128-instance LRU drops the first 72 and nothing else keeps them
   alive. Two full collections between two reads of the process-wide
   totals must lower none of them. *)
let test_totals_survive_collection () =
  let rng = Random.State.make [| 11 |] in
  let input =
    String.init 2048 (fun _ -> "abcdefz ".[Random.State.int rng 8])
  in
  let start = Dfa.global_stats () in
  for i = 1 to 200 do
    let c = Compile.compile_exn (Printf.sprintf "[a-f]{%d}z" i) in
    ignore
      (Core.find_all ~plan:c.Compile.plan ?dfa:c.Compile.dfa
         c.Compile.program input)
  done;
  let before = Dfa.global_stats () in
  Gc.full_major ();
  Gc.full_major ();
  let after = Dfa.global_stats () in
  if not (no_lower before after) then
    Alcotest.failf "totals fell: hits %d -> %d, states %d -> %d"
      before.Dfa.hits after.Dfa.hits before.Dfa.states_built
      after.Dfa.states_built;
  check "the overlay ran" true
    (before.Dfa.dfa_attempts > start.Dfa.dfa_attempts)

(* Past 128 families a domain evicts its least recently used instance,
   not all of them: a standing 16-rule ruleset, scanned 7 times per scan
   of a fresh pattern over 200 fresh patterns (the daemon's 1-in-8
   cache-miss mix), keeps its warm tables, so its families build no
   state after the first round. Dropping the whole table at the 129th
   family rebuilt them. *)
let test_lru_keeps_standing_ruleset () =
  let module W = Alveare_workloads in
  let module Ruleset = Alveare_compiler.Ruleset in
  let pats = W.Snort.patterns (W.Rng.create 22) 16 in
  let rs =
    Ruleset.compile_exn ~cache:(Compile.create_cache ())
      (List.mapi (fun i p -> (string_of_int i, p)) pats)
  in
  let input =
    (W.Streams.generate ~rng:(W.Rng.create 23) ~size:4096
       ~background:W.Snort.background
       ~plant:
         (W.Streams.plant_of_patterns
            ~asts:(List.map Alveare_frontend.Desugar.pattern_exn pats))
       ())
      .W.Streams.data
  in
  let fams =
    Array.to_list rs.Ruleset.rules
    |> List.filter_map (fun r -> r.Ruleset.compiled.Compile.dfa)
  in
  let states () =
    List.fold_left
      (fun acc fam -> acc + (Dfa.family_stats fam).Dfa.states_built)
      0 fams
  in
  let first = ref 0 in
  for round = 1 to 200 do
    for _ = 1 to 7 do ignore (Ruleset.scan rs input) done;
    if round = 1 then first := states ()
    else if states () <> !first then
      Alcotest.failf "round %d: the ruleset's families have built %d states \
                      (%d after round 1)" round (states ()) !first;
    let c = Compile.compile_exn (Printf.sprintf "[a-f]{%d}z" (round + 1)) in
    let fam = Option.get c.Compile.dfa in
    ignore
      (Core.find_all ~plan:c.Compile.plan ~dfa:fam c.Compile.program input);
    check "the fresh pattern got an instance" true
      ((Dfa.family_stats fam).Dfa.states_built > 0)
  done;
  check "the ruleset runs on the overlay" true (!first > List.length fams)

(* --- byte classes ---------------------------------------------------------- *)

(* The rows are indexed by [Dfa.byte_classes]: bytes of one class must
   get the same answer from every literal byte and every set of the
   plan (else a cell built from the class's representative would be
   wrong for the others), and bytes of different classes must be told
   apart by at least one of them (else rows are wider than needed). *)
let prop_byte_classes =
  QCheck2.Test.make ~count:400
    ~name:"byte classes: exact and coarsest over the plan's Lit and Set ops"
    ~print:Gen_ast.print_ast Gen_ast.gen_ast
    (fun ast ->
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let plan = c.Compile.plan in
        let tests =
          Array.to_list (Plan.ops plan)
          |> List.concat_map (function
            | Plan.Lit { chars; _ } ->
              List.map (fun l b -> b = l) (List.of_seq (String.to_seq chars))
            | Plan.Set { bits; _ } -> [ Plan.set_mem bits ]
            | _ -> [])
        in
        let answers =
          Array.init 256 (fun b ->
              String.concat ""
                (List.map (fun t -> if t (Char.chr b) then "1" else "0") tests))
        in
        let cls, reps = Dfa.byte_classes plan in
        let class_of b = Char.code cls.[b] in
        for b = 0 to 255 do
          let k = class_of b in
          if k >= String.length reps || Char.code reps.[k] > b
             || class_of (Char.code reps.[k]) <> k
          then QCheck2.Test.fail_reportf "byte %d: class %d, bad representative" b k;
          for b' = b + 1 to 255 do
            if (class_of b' = k) <> (answers.(b') = answers.(b)) then
              QCheck2.Test.fail_reportf
                "bytes %d and %d: classes %d and %d, answers %s and %s" b b' k
                (class_of b') answers.(b) answers.(b')
          done
        done;
        true)

(* --- allocation ---------------------------------------------------------- *)

(* A dense scan of [0-9a-f]{35,49} over 16 KiB of mixed hex text. *)
let hex_scan () =
  let c = Compile.compile_exn "[0-9a-f]{35,49}" in
  let fam = Option.get c.Compile.dfa in
  let rng = Random.State.make [| 17 |] in
  let input =
    String.init 16384 (fun _ ->
        if Random.State.int rng 24 = 0 then ' '
        else "0123456789abcdef".[Random.State.int rng 16])
  in
  let scan stats =
    Core.find_all ~stats ~plan:c.Compile.plan ~dfa:fam c.Compile.program input
  in
  (fam, scan)

(* An attempt served by the table allocates nothing: after a warm-up
   scan has built the transitions, a dense scan of thousands of
   overlay attempts allocates under 8 minor words per attempt, which
   leaves room for the matches (option, span, list cell) and the
   scan's own set-up, not for per-attempt closures or boxed optional
   arguments. Mixed hex text keeps most attempts short and failing. *)
let test_attempts_allocation_free () =
  let fam, scan = hex_scan () in
  ignore (scan (Core.fresh_stats ()));
  let table_attempts () = (Dfa.family_stats fam).Dfa.dfa_attempts in
  let served0 = table_attempts () in
  let stats = Core.fresh_stats () in
  let w0 = Gc.minor_words () in
  let spans = scan stats in
  let words = Gc.minor_words () -. w0 in
  let attempts = stats.Core.attempts in
  check "thousands of attempts" true (attempts >= 2000);
  check "some matches" true (spans <> []);
  check "every attempt on the table" true
    (table_attempts () - served0 = attempts);
  let per_attempt = words /. Float.of_int attempts in
  if per_attempt >= 8.0 then
    Alcotest.failf "%.0f minor words over %d attempts: %.1f per attempt"
      words attempts per_attempt

(* A row has one cell per byte class plus one for end of input, not one
   per byte value: after the warm scan above, the domain's instance
   (about 50 states over 2 classes, hex digits and the rest) with its
   rows, transitions and the plan it reaches stays under 8,192 words
   (3,551; 28,210 with 257-cell rows). *)
let test_rows_sized_by_classes () =
  let fam, scan = hex_scan () in
  ignore (scan (Core.fresh_stats ()));
  let d = Dfa.get fam in
  let states = (Dfa.family_stats fam).Dfa.states_built in
  check "states built" true (states >= 40);
  let words = Obj.reachable_words (Obj.repr d) in
  if words >= 8192 then
    Alcotest.failf "the instance reaches %d words (%d states)" words states

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dfa_equals_plan; prop_tiny_budget; prop_byte_classes ]

let () =
  Alcotest.run "dfa_overlay"
    [ ( "lifecycle",
        [ Alcotest.test_case
            "no scan raises, no counter decreases under instance churn"
            `Quick test_instance_churn;
          Alcotest.test_case "totals survive collected families" `Quick
            test_totals_survive_collection;
          Alcotest.test_case "LRU keeps a standing ruleset's instances" `Quick
            test_lru_keeps_standing_ruleset ] );
      ("differential", qsuite);
      ( "seams",
        [ Alcotest.test_case "fragment-boundary handoff" `Quick
            test_fragment_handoff;
          Alcotest.test_case "tiny budget flush-and-refill" `Quick
            test_tiny_budget_flushes;
          Alcotest.test_case "cell budget flush-and-refill" `Quick
            test_cell_budget_flushes;
          Alcotest.test_case "streaming resume" `Quick test_streaming_resume ] );
      ( "guards",
        [ Alcotest.test_case "mismatched plan ignored" `Quick
            test_mismatched_plan_ignored;
          Alcotest.test_case "finite stack bypasses" `Quick
            test_finite_stack_bypasses;
          Alcotest.test_case "engages without a switch" `Quick
            test_engages_without_switch;
          Alcotest.test_case "held instance refuses, counted" `Quick
            test_refusal_counted;
          Alcotest.test_case "repeated rule never refused" `Quick
            test_repeated_rule_not_refused ] );
      ( "allocation",
        [ Alcotest.test_case "attempts on the table allocate nothing" `Quick
            test_attempts_allocation_free;
          Alcotest.test_case "rows sized by byte classes" `Quick
            test_rows_sized_by_classes ] ) ]
