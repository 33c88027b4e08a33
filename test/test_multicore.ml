(* Multi-core scale-out tests: result equivalence with a single core
   (fixed cases and a random property at 2-10 cores over every candidate
   source), the stitch's host re-attempts (charged to no core),
   overlap-window semantics at slice boundaries, wall-clock accounting,
   the candidate-offset source, and configuration validation. *)

module Core = Alveare_arch.Core
module Multicore = Alveare_multicore.Multicore
module Compile = Alveare_compiler.Compile
module S = Alveare_engine.Semantics
module Gen_ast = Alveare_test_support.Gen_ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile pat = (Compile.compile_exn pat).Compile.program

(* Build an input with witnesses at chosen positions over a 'z' field. *)
let field ~size plants =
  let buf = Bytes.make size 'z' in
  List.iter
    (fun (pos, w) -> Bytes.blit_string w 0 buf pos (String.length w))
    plants;
  Bytes.to_string buf

let test_matches_equal_single_core () =
  let program = compile "ab+c" in
  let input = field ~size:4096 [ (10, "abbc"); (1030, "abc"); (3000, "abbbbc") ] in
  let single = Core.find_all program input in
  List.iter
    (fun cores ->
       let mc = Multicore.find_all ~cores ~overlap:64 program input in
       check (Printf.sprintf "%d cores" cores) true (mc = single))
    [ 1; 2; 3; 4; 7; 10 ]

let test_boundary_match_found_with_overlap () =
  let program = compile "abcd" in
  (* with 4 cores over 400 bytes, slice boundary at 100: plant across it *)
  let input = field ~size:400 [ (98, "abcd") ] in
  let with_overlap = Multicore.find_all ~cores:4 ~overlap:16 program input in
  check "found with overlap" true
    (with_overlap = [ { S.start = 98; stop = 102 } ]);
  let without_overlap = Multicore.find_all ~cores:4 ~overlap:0 program input in
  check "lost without overlap (documented approximation)" true
    (without_overlap = [])

let test_overlap_dedup () =
  let program = compile "ab" in
  (* a match entirely inside the overlap region is attributed only to the
     owning core *)
  let input = field ~size:200 [ (101, "ab") ] in
  let mc = Multicore.run ~config:(Multicore.config ~cores:2 ~overlap:50 ()) program input in
  check_int "exactly one copy" 1 (List.length mc.Multicore.matches);
  (* core 1 owns offset 101 (slice 100..200) *)
  check_int "owned by core 1" 1
    (List.length mc.Multicore.per_core.(1).Multicore.owned);
  check_int "core 0 owns none" 0
    (List.length mc.Multicore.per_core.(0).Multicore.owned)

let test_wall_clock_is_max () =
  let program = compile "ab+c" in
  let input = field ~size:8192 [ (100, "abbc"); (5000, "abc") ] in
  let mc = Multicore.run ~config:(Multicore.config ~cores:4 ~overlap:32 ()) program input in
  let per_core_cycles =
    Array.to_list
      (Array.map (fun c -> c.Multicore.stats.Core.cycles) mc.Multicore.per_core)
  in
  check_int "wall = max" (List.fold_left max 0 per_core_cycles) mc.Multicore.cycles;
  check_int "total = sum" (List.fold_left ( + ) 0 per_core_cycles)
    mc.Multicore.totals.Core.cycles

let test_scaling_reduces_wall_cycles () =
  let program = compile "[ab]{2,6}c" in
  let rng = Alveare_workloads.Rng.create 7 in
  let input =
    String.init 65536 (fun _ ->
        Alveare_workloads.Rng.char_of rng "abcxyz")
  in
  let wall cores =
    (Multicore.run ~config:(Multicore.config ~cores ~overlap:16 ()) program input)
      .Multicore.cycles
  in
  let w1 = wall 1 and w4 = wall 4 and w10 = wall 10 in
  check "4 cores faster than 1" true (w4 < w1);
  check "10 cores faster than 4" true (w10 < w4);
  check "speedup bounded by core count" true (w1 / w10 <= 10 + 1)

let test_empty_input () =
  let program = compile "a*" in
  let mc = Multicore.run ~config:(Multicore.config ~cores:4 ()) program "" in
  check "nullable matches empty input once" true
    (mc.Multicore.matches = [ { S.start = 0; stop = 0 } ])

(* An empty match at the end of input is kept once, by the core whose
   slice ends there, and so are the empty matches at slice starts. *)
let test_empty_match_at_end () =
  let program = compile "a*" in
  let input = "baaabxbaab" in
  let single = Core.find_all program input in
  check "one core ends on an empty match" true
    (List.rev single |> List.hd = { S.start = 10; stop = 10 });
  for cores = 2 to 10 do
    check
      (Printf.sprintf "%d cores = one core" cores)
      true
      (Multicore.find_all ~cores ~overlap:4 program input = single)
  done

let test_more_cores_than_bytes () =
  let program = compile "ab" in
  let matches = Multicore.find_all ~cores:10 ~overlap:4 program "ab" in
  check "tiny input" true (matches = [ { S.start = 0; stop = 2 } ])

(* --- Candidate source ----------------------------------------------------- *)

(* The ten counters of a stats record, named. *)
let counters (s : Core.stats) =
  [ ("cycles", s.Core.cycles); ("instructions", s.Core.instructions);
    ("rollbacks", s.Core.rollbacks); ("stack_pushes", s.Core.stack_pushes);
    ("max_stack_depth", s.Core.max_stack_depth);
    ("scan_cycles", s.Core.scan_cycles); ("attempts", s.Core.attempts);
    ("offsets_scanned", s.Core.offsets_scanned);
    ("offsets_pruned", s.Core.offsets_pruned);
    ("match_count", s.Core.match_count) ]

let check_counters label expected actual =
  List.iter2
    (fun (name, e) (_, a) -> check_int (label ^ ": " ^ name) e a)
    (counters expected) (counters actual)

(* Every match start of the dense one-core scan, plus every 37th
   offset: a superset of the true starts, sorted and deduplicated. *)
let candidates_of ~n spans =
  List.sort_uniq compare
    (List.map (fun (s : S.span) -> s.S.start) spans
     @ List.init ((n / 37) + 1) (fun i -> i * 37))
  |> Array.of_list

let candidate_cases =
  [ ("ab+c", field ~size:4096 [ (10, "abbc"); (1030, "abc"); (3000, "abbbbc") ]);
    ("(ab|cd)+x", field ~size:3000 [ (99, "ababx"); (1499, "cdx"); (2990, "abx") ]);
    ("z*", "zzqzzzqqz") ]

let test_candidates_one_core () =
  List.iter
    (fun (pattern, input) ->
       let c = Compile.compile_exn pattern in
       let candidates =
         candidates_of ~n:(String.length input)
           (Core.find_all c.Compile.program input)
       in
       let stats = Core.fresh_stats () in
       let direct =
         Core.find_all_candidates ~stats ~candidates ~plan:c.Compile.plan
           ?dfa:c.Compile.dfa c.Compile.program input
       in
       let mc =
         Multicore.run ~candidates ~plan:c.Compile.plan ?dfa:c.Compile.dfa
           ~config:(Multicore.config ~cores:1 ())
           c.Compile.program input
       in
       check (pattern ^ ": spans") true (mc.Multicore.matches = direct);
       check_int (pattern ^ ": wall cycles") stats.Core.cycles
         mc.Multicore.cycles;
       check_counters (pattern ^ " totals") stats mc.Multicore.totals;
       check_counters (pattern ^ " core 0") stats
         mc.Multicore.per_core.(0).Multicore.stats)
    candidate_cases

(* "a+b" has no leading byte test and fails every attempt over [a]s,
   so a core attempts exactly at the candidates inside its region:
   [slice_start, slice_stop + overlap), and the end of input for the
   region that reaches it. *)
let test_candidates_stay_in_region () =
  let program = compile "a+b" in
  let n = 400 and overlap = 16 in
  let input = String.make n 'a' in
  let candidates =
    [| -9; -1; 0; 5; 99; 100; 101; 115; 116; 133; 134; 149; 150; 199; 200;
       266; 267; 299; 300; 301; 399; 400; 401; 4000 |]
  in
  List.iter
    (fun cores ->
       let mc =
         Multicore.run ~candidates ~config:(Multicore.config ~cores ~overlap ())
           program input
       in
       Array.iteri
         (fun k (c : Multicore.core_result) ->
            let region_stop = min n (c.Multicore.slice_stop + overlap) in
            let in_region o =
              o >= c.Multicore.slice_start
              && (o < region_stop || (o = n && region_stop = n))
            in
            let inside =
              Array.fold_left
                (fun acc o -> if in_region o then acc + 1 else acc)
                0 candidates
            in
            check_int
              (Printf.sprintf "%d cores, core %d attempts" cores k)
              inside c.Multicore.stats.Core.attempts)
         mc.Multicore.per_core;
       check (Printf.sprintf "%d cores: no match" cores) true
         (mc.Multicore.matches = []))
    [ 2; 3; 4 ]

let test_candidates_multi_core () =
  List.iter
    (fun (pattern, input) ->
       let c = Compile.compile_exn pattern in
       let single = Core.find_all c.Compile.program input in
       let candidates = candidates_of ~n:(String.length input) single in
       List.iter
         (fun cores ->
            let config = Multicore.config ~cores ~overlap:64 () in
            let mc =
              Multicore.run ~candidates ~plan:c.Compile.plan
                ?dfa:c.Compile.dfa ~config c.Compile.program input
            in
            check
              (Printf.sprintf "%s on %d cores = one core" pattern cores)
              true
              (mc.Multicore.matches = single))
         [ 2; 3; 4 ])
    candidate_cases

let test_candidates_exclude_prefilter () =
  let c = Compile.compile_exn "ab" in
  check "candidates with a prefilter rejected" true
    (try
       ignore
         (Multicore.run ~candidates:[| 0 |] ~prefilter:c.Compile.prefilter
            ~config:(Multicore.config ()) c.Compile.program "ab");
       false
     with Invalid_argument _ -> true)

(* [totals] is the per-core sum of every counter (the deepest core's
   stack), on both candidate sources. *)
let test_totals_are_sums () =
  let c = Compile.compile_exn "(ab|cd)+x" in
  let input = field ~size:3000 [ (99, "ababx"); (1499, "cdx"); (2990, "abx") ] in
  let candidates = candidates_of ~n:3000 (Core.find_all c.Compile.program input) in
  List.iter
    (fun (label, run) ->
       List.iter
         (fun cores ->
            let mc : Multicore.result =
              run ~config:(Multicore.config ~cores ~overlap:32 ())
            in
            let per_core =
              Array.to_list
                (Array.map
                   (fun (k : Multicore.core_result) -> counters k.Multicore.stats)
                   mc.Multicore.per_core)
            in
            List.iteri
              (fun i (name, total) ->
                 let values = List.map (fun l -> snd (List.nth l i)) per_core in
                 let expected =
                   if name = "max_stack_depth" then List.fold_left max 0 values
                   else List.fold_left ( + ) 0 values
                 in
                 check_int
                   (Printf.sprintf "%s, %d cores: %s" label cores name)
                   expected total)
              (counters mc.Multicore.totals))
         [ 1; 2; 3; 4 ])
    [ ("prefilter",
       fun ~config ->
         Multicore.run ~prefilter:c.Compile.prefilter ~config
           c.Compile.program input);
      ("candidates",
       fun ~config -> Multicore.run ~candidates ~config c.Compile.program input) ]

(* --- The stitch ------------------------------------------------------------

   At every core count the stitched cores return the one-core scan's
   spans, on each candidate source: dense, the first-set prefilter, and
   an explicit array (about three offsets in four, the end of input
   included, true starts not forced in). Inputs are tripled so matches
   cross slice boundaries, and use the pattern's own window; drawn
   patterns include nullable ones. *)
let show_spans spans = Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) spans

let prop_stitch_equals_one_core =
  QCheck2.Test.make ~count:300 ~name:"2-10 cores = one core, every source"
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast (input ^ input ^ input) in
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let n = String.length input in
        let candidates =
          List.init (n + 1) Fun.id
          |> List.filter (fun o -> o = n || Hashtbl.hash (input, o) land 3 <> 0)
          |> Array.of_list
        in
        let overlap = Multicore.overlap_for_ast c.Compile.ast in
        let plan = c.Compile.plan and program = c.Compile.program in
        let prefilter = c.Compile.prefilter in
        List.iter
          (fun (source, one_core, run) ->
             for cores = 2 to 10 do
               let mc =
                 (run ~config:(Multicore.config ~cores ~overlap ()))
                   .Multicore.matches
               in
               if mc <> one_core then
                 QCheck2.Test.fail_reportf "%s, %d cores: %s, one core: %s"
                   source cores (show_spans mc) (show_spans one_core)
             done)
          [ ("dense", Core.find_all ~plan program input,
             fun ~config -> Multicore.run ~plan ~config program input);
            ("first-set", Core.find_all ~prefilter ~plan program input,
             fun ~config ->
               Multicore.run ~prefilter ~plan ~config program input);
            ("candidates",
             Core.find_all_candidates ~candidates ~plan program input,
             fun ~config ->
               Multicore.run ~candidates ~plan ~config program input) ];
        true)

(* [aa[ab]] over eight [a]s at two cores of four bytes, window 3: core
   0 keeps 0-3 and 3-6. Core 1 found 4-7, which starts inside the kept
   3-6, where the one-core scan never attempts: the stitch drops it
   after one host re-attempt, at 6, that fails at the end of input.
   Core 1's stats still count the match it found. *)
let test_stitch_drops_overlapping_match () =
  let program = compile "aa[ab]" in
  let input = "aaaaaaaa" in
  let mc =
    Multicore.run ~config:(Multicore.config ~cores:2 ~overlap:3 ()) program
      input
  in
  let spans = [ { S.start = 0; stop = 3 }; { S.start = 3; stop = 6 } ] in
  check "one core gives 0-3 3-6" true (Core.find_all program input = spans);
  check "two cores = one core" true (mc.Multicore.matches = spans);
  check "core 0 owns both" true
    (mc.Multicore.per_core.(0).Multicore.owned = spans);
  check "core 1 owns none" true
    (mc.Multicore.per_core.(1).Multicore.owned = []);
  check_int "core 1 counted its match" 1
    mc.Multicore.per_core.(1).Multicore.stats.Core.match_count;
  check_int "one host re-attempt" 1 mc.Multicore.stitch_attempts

(* The stitch is host work: whatever it re-attempts, each core's stats
   are those of a direct scan of its region [slice_start, slice_stop +
   overlap), on the dense and first-set sources. *)
let test_stitch_charges_no_core () =
  let probe = "GET /index.html user=root aaab 12345" in
  let cases =
    [ ("([^A-Z])+", probe ^ probe ^ probe, 8);
      ("aaa", String.make 120 'a', 3);
      ("a+", String.make 400 'a', 16) ]
  in
  let attempts = ref 0 in
  List.iter
    (fun (pattern, input, overlap) ->
       let c = Compile.compile_exn pattern in
       let n = String.length input in
       List.iter
         (fun (source, prefilter) ->
            for cores = 2 to 10 do
              let mc =
                Multicore.run ?prefilter
                  ~config:(Multicore.config ~cores ~overlap ())
                  c.Compile.program input
              in
              attempts := !attempts + mc.Multicore.stitch_attempts;
              Array.iteri
                (fun k (core : Multicore.core_result) ->
                   let start = core.Multicore.slice_start in
                   let stop = min n (core.Multicore.slice_stop + overlap) in
                   let stats = Core.fresh_stats () in
                   ignore
                     (Core.find_all ?prefilter ~stats c.Compile.program
                        (String.sub input start (stop - start)));
                   check_counters
                     (Printf.sprintf "%s, %s, %d cores, core %d" pattern
                        source cores k)
                     stats core.Multicore.stats)
                mc.Multicore.per_core
            done)
         [ ("dense", None); ("first-set", Some c.Compile.prefilter) ])
    cases;
  check "the stitch re-attempted" true (!attempts > 0)

(* What stays approximate: a match longer than the window is cut at its
   region's end. [a+] over 400 [a]s at four cores of 100 bytes and a
   16-byte window: core 0's match ends at its region's end, 116; the
   stitch resumes there, and its one re-attempt, on the whole input,
   runs to the end. A window that holds the match gives the one-core
   span. *)
let test_window_cuts_long_match () =
  let program = compile "a+" in
  let input = String.make 400 'a' in
  let run overlap =
    Multicore.run ~config:(Multicore.config ~cores:4 ~overlap ()) program input
  in
  let cut = run 16 in
  check "cut at core 0's region end" true
    (cut.Multicore.matches
     = [ { S.start = 0; stop = 116 }; { S.start = 116; stop = 400 } ]);
  check_int "one host re-attempt" 1 cut.Multicore.stitch_attempts;
  check "a window that holds the match" true
    ((run 300).Multicore.matches = Core.find_all program input)

(* An empty input holds one empty match for a nullable pattern and none
   otherwise, at every core count and on every candidate source. *)
let test_empty_input_every_source () =
  List.iter
    (fun (pattern, expected) ->
       let c = Compile.compile_exn pattern in
       let program = c.Compile.program in
       List.iter
         (fun (source, run) ->
            for cores = 1 to 10 do
              check
                (Printf.sprintf "%s, %s, %d cores" pattern source cores)
                true
                ((run ~config:(Multicore.config ~cores ())).Multicore.matches
                 = expected)
            done)
         [ ("dense", fun ~config -> Multicore.run ~config program "");
           ("first-set",
            fun ~config ->
              Multicore.run ~prefilter:c.Compile.prefilter ~config program "");
           ("candidates",
            fun ~config ->
              Multicore.run ~candidates:[| 0 |] ~config program "") ])
    [ ("a*", [ { S.start = 0; stop = 0 } ]); ("ab", []) ]

let test_config_validation () =
  check "zero cores rejected" true
    (try ignore (Multicore.config ~cores:0 ()); false
     with Invalid_argument _ -> true);
  check "negative overlap rejected" true
    (try ignore (Multicore.config ~overlap:(-1) ()); false
     with Invalid_argument _ -> true)

let test_overlap_for_ast () =
  let ast pat = Alveare_frontend.Desugar.pattern_exn pat in
  check_int "bounded pattern" 6 (Multicore.overlap_for_ast (ast "a{2,6}"));
  check_int "unbounded pattern uses cap" 4096
    (Multicore.overlap_for_ast (ast "a+"));
  check_int "custom cap" 128 (Multicore.overlap_for_ast ~cap:128 (ast "a*"))

let () =
  Alcotest.run "multicore"
    [ ( "equivalence",
        [ Alcotest.test_case "matches equal single core" `Quick
            test_matches_equal_single_core;
          Alcotest.test_case "boundary with overlap" `Quick
            test_boundary_match_found_with_overlap;
          Alcotest.test_case "overlap dedup" `Quick test_overlap_dedup ] );
      ( "cycles",
        [ Alcotest.test_case "wall clock is max" `Quick test_wall_clock_is_max;
          Alcotest.test_case "scaling reduces wall cycles" `Quick
            test_scaling_reduces_wall_cycles ] );
      ( "candidates",
        [ Alcotest.test_case "one core = find_all_candidates" `Quick
            test_candidates_one_core;
          Alcotest.test_case "attempts stay in the region" `Quick
            test_candidates_stay_in_region;
          Alcotest.test_case "2-4 cores = one core" `Quick
            test_candidates_multi_core;
          Alcotest.test_case "exclusive with the prefilter" `Quick
            test_candidates_exclude_prefilter;
          Alcotest.test_case "totals are per-core sums" `Quick
            test_totals_are_sums ] );
      ( "stitch",
        [ QCheck_alcotest.to_alcotest prop_stitch_equals_one_core;
          Alcotest.test_case "drops an overlapping core match" `Quick
            test_stitch_drops_overlapping_match;
          Alcotest.test_case "charges no core" `Quick
            test_stitch_charges_no_core;
          Alcotest.test_case "window cuts a longer match" `Quick
            test_window_cuts_long_match ] );
      ( "edges",
        [ Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "empty input, every source" `Quick
            test_empty_input_every_source;
          Alcotest.test_case "empty match at end" `Quick
            test_empty_match_at_end;
          Alcotest.test_case "more cores than bytes" `Quick
            test_more_cores_than_bytes;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "overlap_for_ast" `Quick test_overlap_for_ast ] ) ]
