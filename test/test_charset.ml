(* Unit + property tests for the Charset range representation. *)

module C = Alveare_frontend.Charset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ranges = Alcotest.(check (list (pair int int)))

let test_normalization () =
  ranges "overlap merges" [ (10, 30) ] (C.ranges (C.of_ranges [ (10, 20); (15, 30) ]));
  ranges "adjacent merges" [ (10, 20) ] (C.ranges (C.of_ranges [ (10, 14); (15, 20) ]));
  ranges "disjoint stays" [ (1, 2); (5, 6) ] (C.ranges (C.of_ranges [ (5, 6); (1, 2) ]));
  ranges "inverted range dropped" [] (C.ranges (C.of_ranges [ (5, 3) ]));
  ranges "duplicates collapse" [ (7, 7) ] (C.ranges (C.of_ranges [ (7, 7); (7, 7) ]))

let test_membership () =
  let s = C.of_ranges [ (Char.code 'a', Char.code 'f'); (Char.code '0', Char.code '9') ] in
  check "a in" true (C.mem 'a' s);
  check "f in" true (C.mem 'f' s);
  check "g out" false (C.mem 'g' s);
  check "5 in" true (C.mem '5' s);
  check_int "cardinal" 16 (C.cardinal s)

let test_union () =
  let s = C.union (C.range 'a' 'c') (C.range 'b' 'e') in
  ranges "union merges" [ (Char.code 'a', Char.code 'e') ] (C.ranges s)

let test_complement () =
  let s = C.range 'A' 'Z' in
  let c = C.complement ~alphabet_size:128 s in
  ranges "complement of A-Z in ascii"
    [ (0, Char.code 'A' - 1); (Char.code 'Z' + 1, 127) ]
    (C.ranges c);
  check_int "complement cardinal" (128 - 26) (C.cardinal c);
  ranges "complement of everything" []
    (C.ranges (C.complement ~alphabet_size:128 (C.of_ranges [ (0, 127) ])));
  ranges "complement of empty" [ (0, 255) ]
    (C.ranges (C.complement ~alphabet_size:256 C.empty))

let test_clip () =
  let s = C.of_ranges [ (100, 200) ] in
  ranges "clip at 128" [ (100, 127) ] (C.ranges (C.clip ~alphabet_size:128 s));
  ranges "clip below" [] (C.ranges (C.clip ~alphabet_size:64 s))

let test_chars_and_fold () =
  let s = C.of_chars [ 'c'; 'a'; 'b' ] in
  Alcotest.(check (list char)) "chars sorted" [ 'a'; 'b'; 'c' ] (C.chars s);
  check_int "fold count" 3 (C.fold_chars (fun acc _ -> acc + 1) 0 s);
  check "choose" true (C.choose s = Some 'a');
  check "choose empty" true (C.choose C.empty = None)

let test_shorthands () =
  check_int "digit" 10 (C.cardinal C.digit);
  check_int "word" 63 (C.cardinal C.word);
  check "word has underscore" true (C.mem '_' C.word);
  check "space has tab" true (C.mem '\t' C.space);
  check "space has newline" true (C.mem '\n' C.space)

let test_bad_inputs () =
  check "range above 255 rejected" true
    (try ignore (C.of_ranges [ (0, 256) ]); false
     with Invalid_argument _ -> true);
  check "alphabet 0 rejected" true
    (try ignore (C.complement ~alphabet_size:0 C.empty); false
     with Invalid_argument _ -> true)

(* Minterms: [a-f] and [d-z] cut the alphabet into a-c, d-f, g-z and
   the rest; the single 'x' takes a class of its own out of g-z, and
   y-z stays with g-w (a class need not be an interval). Classes are
   numbered by their smallest byte, which is their representative. *)
let test_byte_classes () =
  let af = C.range 'a' 'f' and dz = C.range 'd' 'z' in
  let cls, reps =
    C.byte_classes ~singles:"x" [ (fun c -> C.mem c af); (fun c -> C.mem c dz) ]
  in
  Alcotest.(check string) "representatives" "\000adgx" reps;
  let of_ c = Char.code cls.[Char.code c] in
  check_int "NUL" 0 (of_ '\000');
  check_int "above z" 0 (of_ '{');
  check_int "a-c" 1 (of_ 'c');
  check_int "d-f" 2 (of_ 'f');
  check_int "g-w" 3 (of_ 'w');
  check_int "x alone" 4 (of_ 'x');
  check_int "y-z with g-w" 3 (of_ 'z');
  let every = String.init 256 Char.chr in
  let all, reps = C.byte_classes ~singles:every [] in
  check "every byte a single" true (all = every && reps = every);
  let none, one = C.byte_classes [] in
  check "no test: one class" true (none = String.make 256 '\000' && one = "\000")

(* Properties: double complement = clip; membership matches chars. *)
let qcheck_tests =
  let open QCheck2 in
  let gen_set =
    Gen.(
      let* n = int_range 0 5 in
      let* items =
        list_size (return n)
          (let* lo = int_bound 255 in
           let* span = int_bound 30 in
           return (lo, min 255 (lo + span)))
      in
      return (C.of_ranges items))
  in
  let print s = Fmt.str "%a" C.pp s in
  [ Test.make ~name:"complement is involutive under clip" ~count:500 ~print
      gen_set (fun s ->
        let c2 =
          C.complement ~alphabet_size:128 (C.complement ~alphabet_size:128 s)
        in
        C.equal c2 (C.clip ~alphabet_size:128 s));
    Test.make ~name:"mem agrees with chars" ~count:300 ~print gen_set (fun s ->
        List.for_all (fun c -> C.mem c s) (C.chars s)
        && C.cardinal s = List.length (C.chars s));
    Test.make ~name:"complement disjoint and covering" ~count:300 ~print
      gen_set (fun s ->
        let c = C.complement ~alphabet_size:256 s in
        C.cardinal s + C.cardinal c = 256
        && List.for_all (fun ch -> not (C.mem ch c)) (C.chars s)) ]

let () =
  Alcotest.run "charset"
    [ ( "unit",
        [ Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "clip" `Quick test_clip;
          Alcotest.test_case "chars/fold/choose" `Quick test_chars_and_fold;
          Alcotest.test_case "shorthands" `Quick test_shorthands;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          Alcotest.test_case "byte classes" `Quick test_byte_classes ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests) ]
