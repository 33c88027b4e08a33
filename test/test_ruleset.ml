(* Ruleset tests: compile-all error reporting, per-rule hit attribution,
   cycle accounting, and multi-core scanning. *)

module Ruleset = Alveare_compiler.Ruleset
module S = Alveare_engine.Semantics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let specs =
  [ ("digits", "[0-9]{2,6}");
    ("keyword", "alert");
    ("pair", "(ab|cd)+x") ]

let test_compile_ok () =
  let t = Ruleset.compile_exn specs in
  check_int "size" 3 (Ruleset.size t);
  check "rule ids sequential" true
    (List.map (fun (r : Ruleset.rule) -> r.id) (Ruleset.rules t) = [ 0; 1; 2 ]);
  check "find rule" true
    (match Ruleset.find_rule t 1 with
     | Some r -> r.Ruleset.tag = "keyword"
     | None -> false);
  check "find missing" true (Ruleset.find_rule t 9 = None)

let test_compile_reports_all_failures () =
  match Ruleset.compile [ ("ok", "abc"); ("bad1", "(a"); ("bad2", "[z-a]") ] with
  | Ok _ -> Alcotest.fail "expected failures"
  | Error failures ->
    check_int "both bad rules reported" 2 (List.length failures);
    check "ids preserved" true
      (List.map (fun (f : Ruleset.compile_error) -> f.failed_rule.id) failures
       = [ 1; 2 ])

let test_scan_hits () =
  let t = Ruleset.compile_exn specs in
  let input = "xx1234 alert abx alert" in
  let report = Ruleset.scan t input in
  check_int "digit hits" 1 (List.length (Ruleset.hits_for report 0));
  check_int "keyword hits" 2 (List.length (Ruleset.hits_for report 1));
  check_int "pair hits" 1 (List.length (Ruleset.hits_for report 2));
  check "hit spans correct" true
    ((List.hd (Ruleset.hits_for report 0)).Ruleset.span
     = { S.start = 2; stop = 6 });
  check "per-rule cycles for all" true
    (List.map fst report.Ruleset.per_rule_cycles = [ 0; 1; 2 ]);
  check "total is the sum" true
    (report.Ruleset.total_wall_cycles
     = List.fold_left (fun acc (_, c) -> acc + c) 0 report.Ruleset.per_rule_cycles);
  check "seconds include dispatch" true
    (report.Ruleset.seconds
     > 3.0 *. Alveare_platform.Calibration.alveare_job_overhead_s)

let test_scan_multicore_equivalence () =
  let t = Ruleset.compile_exn specs in
  let rng = Alveare_workloads.Rng.create 5 in
  let input =
    String.init 16384 (fun _ ->
        Alveare_workloads.Rng.char_of rng "abcdx0123 alert")
  in
  let r1 = Ruleset.scan ~cores:1 t input in
  let r4 = Ruleset.scan ~cores:4 t input in
  check "same hits on 4 cores" true (r1.Ruleset.hits = r4.Ruleset.hits);
  check "4 cores no slower" true
    (r4.Ruleset.total_wall_cycles <= r1.Ruleset.total_wall_cycles)

(* Matches that run across slice boundaries: at every core count the
   report holds the one-core hits, one span per rule. Cores that kept
   every match starting in their own slice reported 9-36, 18-36 and
   27-36 for the first rule too, at four cores. *)
let test_scan_multicore_long_matches () =
  let t =
    Ruleset.compile_exn
      [ ("nocaps", "([^A-Z])+");
        ("cred", "(user|login|passwd)=[^&\r\n]{1,24}");
        ("level", "(ERROR|FATAL|PANIC)") ]
  in
  let input = "GET /index.html user=root aaab 12345" in
  let hits report =
    List.map
      (fun (h : Ruleset.hit) -> (h.Ruleset.hit_rule.Ruleset.id, h.Ruleset.span))
      report.Ruleset.hits
  in
  let expected =
    [ (0, { S.start = 3; stop = 36 }); (1, { S.start = 16; stop = 36 }) ]
  in
  List.iter
    (fun prefilter ->
       for cores = 1 to 10 do
         check
           (Printf.sprintf "%d cores, prefilter %b" cores prefilter)
           true
           (hits (Ruleset.scan ~cores ~prefilter t input) = expected)
       done)
    [ true; false ]

let test_scan_cores_validated () =
  let t = Ruleset.compile_exn specs in
  List.iter
    (fun cores ->
       check (Printf.sprintf "cores = %d refused" cores) true
         (try ignore (Ruleset.scan ~cores t "alert"); false
          with Invalid_argument _ -> true))
    [ 0; -1 ]

let () =
  Alcotest.run "ruleset"
    [ ( "compile",
        [ Alcotest.test_case "ok" `Quick test_compile_ok;
          Alcotest.test_case "reports all failures" `Quick
            test_compile_reports_all_failures ] );
      ( "scan",
        [ Alcotest.test_case "hits" `Quick test_scan_hits;
          Alcotest.test_case "multicore equivalence" `Quick
            test_scan_multicore_equivalence;
          Alcotest.test_case "multicore long matches" `Quick
            test_scan_multicore_long_matches;
          Alcotest.test_case "core count validated" `Quick
            test_scan_cores_validated ] ) ]
