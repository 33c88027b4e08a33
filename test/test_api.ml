(* Façade API tests: one-call helpers, pattern caching, error paths, and
   the re-export structure. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function Ok v -> v | Error m -> Alcotest.fail m

let test_find_all () =
  let spans = ok (Alveare.find_all "a+b" "xaab aab") in
  check_int "two matches" 2 (List.length spans);
  check "span fields" true
    ((List.hd spans).Alveare.start = 1 && (List.hd spans).Alveare.stop = 4)

let test_search_and_matches () =
  check "search hit" true
    (ok (Alveare.search "colou?r" "my color") <> None);
  check "search miss" true (ok (Alveare.search "xyz" "abc") = None);
  check "matches" true (ok (Alveare.matches "[0-9]+" "id=42"));
  check "no match" false (ok (Alveare.matches "[0-9]+" "none"))

let test_multicore_helper () =
  let input = String.concat "" (List.init 100 (fun k -> if k mod 10 = 0 then "ab" else "zz")) in
  check "same counts across cores" true
    (List.length (ok (Alveare.find_all "ab" input))
     = List.length (ok (Alveare.find_all ~cores:4 "ab" input)))

(* A match that runs across every slice boundary is one span at every
   core count, through [find_all] and [simulate]. *)
let test_multicore_long_match () =
  let input = "GET /index.html user=root aaab 12345" in
  let one = ok (Alveare.find_all "([^A-Z])+" input) in
  check "one span" true
    (List.map (fun (s : Alveare.span) -> (s.Alveare.start, s.Alveare.stop)) one
     = [ (3, 36) ]);
  for cores = 2 to 10 do
    check (Printf.sprintf "find_all, %d cores" cores) true
      (ok (Alveare.find_all ~cores "([^A-Z])+" input) = one);
    check (Printf.sprintf "simulate, %d cores" cores) true
      (fst (ok (Alveare.simulate ~cores "([^A-Z])+" input)) = one)
  done

let test_errors_are_strings () =
  (match Alveare.find_all "(a" "x" with
   | Error msg -> check "rendered error" true (String.length msg > 0)
   | Ok _ -> Alcotest.fail "expected error");
  (match Alveare.matches "[z-a]" "x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error")

let test_disassemble () =
  let d = ok (Alveare.disassemble "([^A-Z])+") in
  check "mentions EOR" true
    (let n = String.length d in
     let rec go i = i + 3 <= n && (String.sub d i 3 = "EOR" || go (i + 1)) in
     go 0)

let test_simulate () =
  let spans, seconds = ok (Alveare.simulate ~cores:2 "ab" "xxabxx") in
  check_int "one match" 1 (List.length spans);
  check "positive modelled time" true (seconds > 0.0)

let test_cache_reuse () =
  (* same pattern twice: second call served from the cache and equal *)
  let a = ok (Alveare.find_all "cache[0-9]" "cache1 cache2") in
  let b = ok (Alveare.find_all "cache[0-9]" "cache1 cache2") in
  check "stable across calls" true (a = b)

let test_reexports () =
  (* spot-check that the façade exposes the sub-libraries *)
  check "isa constant" true (Alveare.Isa.Instruction.unbounded_max = 63);
  check "area cap" true (Alveare.Platform.Area.max_cores () = 10);
  check "oracle reachable" true
    (Alveare.Engine.Backtrack.matches
       (Alveare.Frontend.Desugar.pattern_exn "a") "xax")

let () =
  Alcotest.run "api"
    [ ( "helpers",
        [ Alcotest.test_case "find_all" `Quick test_find_all;
          Alcotest.test_case "search/matches" `Quick test_search_and_matches;
          Alcotest.test_case "multicore" `Quick test_multicore_helper;
          Alcotest.test_case "multicore long match" `Quick
            test_multicore_long_match;
          Alcotest.test_case "errors" `Quick test_errors_are_strings;
          Alcotest.test_case "disassemble" `Quick test_disassemble;
          Alcotest.test_case "simulate" `Quick test_simulate;
          Alcotest.test_case "cache" `Quick test_cache_reuse ] );
      ("structure", [ Alcotest.test_case "re-exports" `Quick test_reexports ]) ]
