(* Compiler-layer tests: IR lowering shapes in both modes, back-end
   fusion and jump resolution, the Table 2 instruction counts, driver
   statistics and binary output, plus lowering/emission properties. *)

module I = Alveare_isa.Instruction
module P = Alveare_isa.Program
module Ir = Alveare_ir.Ir
module Lower = Alveare_ir.Lower
module Emit = Alveare_backend.Emit
module Compile = Alveare_compiler.Compile
module Desugar = Alveare_frontend.Desugar
module Gen_ast = Alveare_test_support.Gen_ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lower ?options pat = Lower.lower ?options (Desugar.pattern_exn pat)
let compile pat = Compile.compile_exn pat
let program pat = (compile pat).Compile.program

let count ?options pat = Ir.instruction_count (lower ?options pat)

(* --- Advanced-mode lowering shapes ------------------------------------ *)

let test_lower_classes () =
  (match lower "[a-zA-Z]" with
   | Ir.Base { op = I.Range; neg = false; chars = "AZaz" } -> ()
   | ir -> Alcotest.failf "[a-zA-Z]: %s" (Ir.to_string ir));
  (match lower "[^A-Z]" with
   | Ir.Base { op = I.Range; neg = true; chars = "AZ" } -> ()
   | ir -> Alcotest.failf "[^A-Z]: %s" (Ir.to_string ir));
  (match lower "[^abc]" with
   (* a-c is one contiguous range *)
   | Ir.Base { op = I.Range; neg = true; chars = "ac" } -> ()
   | ir -> Alcotest.failf "[^abc]: %s" (Ir.to_string ir));
  (match lower "[acegi]" with
   (* five sparse chars: one OR of 4 + one OR of 1, chained *)
   | Ir.Chain [ _; _ ] -> ()
   | ir -> Alcotest.failf "[acegi]: %s" (Ir.to_string ir));
  (match lower "[^acegi]" with
   (* negated sparse class beyond NOT-OR budget: positive complement *)
   | Ir.Chain _ | Ir.Base { op = I.Range; neg = false; _ } -> ()
   | ir -> Alcotest.failf "[^acegi]: %s" (Ir.to_string ir));
  (match lower "." with
   | Ir.Base { op = I.Range; neg = true; chars = "\n\n" } -> ()
   | ir -> Alcotest.failf "dot: %s" (Ir.to_string ir))

let test_lower_literals () =
  (match lower "abcd" with
   | Ir.Base { op = I.And; chars = "abcd"; _ } -> ()
   | ir -> Alcotest.failf "abcd: %s" (Ir.to_string ir));
  (match lower "abcdefgh" with
   | Ir.Seq [ Ir.Base { chars = "abcd"; _ }; Ir.Base { chars = "efgh"; _ } ] -> ()
   | ir -> Alcotest.failf "abcdefgh: %s" (Ir.to_string ir));
  (* literals merge across erased groups *)
  (match lower "(ab)cd" with
   | Ir.Base { op = I.And; chars = "abcd"; _ } -> ()
   | ir -> Alcotest.failf "(ab)cd: %s" (Ir.to_string ir))

let test_lower_quantifiers () =
  (match lower "a+" with
   | Ir.Quant { qmin = 1; qmax = None; greedy = true; _ } -> ()
   | ir -> Alcotest.failf "a+: %s" (Ir.to_string ir));
  (match lower "a*?" with
   | Ir.Quant { qmin = 0; qmax = None; greedy = false; _ } -> ()
   | ir -> Alcotest.failf "a*?: %s" (Ir.to_string ir));
  (match lower "a{3,9}" with
   | Ir.Quant { qmin = 3; qmax = Some 9; _ } -> ()
   | ir -> Alcotest.failf "a{3,9}: %s" (Ir.to_string ir));
  (* counter overflow splits: {100} = {62}{38} *)
  (match lower "a{100}" with
   | Ir.Seq [ Ir.Quant { qmin = 62; qmax = Some 62; _ };
              Ir.Quant { qmin = 38; qmax = Some 38; _ } ] -> ()
   | ir -> Alcotest.failf "a{100}: %s" (Ir.to_string ir));
  (* {0,100} splits into bounded optional chunks *)
  (match lower "a{0,100}" with
   | Ir.Seq [ Ir.Quant { qmin = 0; qmax = Some 62; _ };
              Ir.Quant { qmin = 0; qmax = Some 38; _ } ] -> ()
   | ir -> Alcotest.failf "a{0,100}: %s" (Ir.to_string ir));
  (* {70,} splits min then unbounded *)
  (match lower "a{70,}" with
   | Ir.Seq [ Ir.Quant { qmin = 62; qmax = Some 62; _ };
              Ir.Quant { qmin = 8; qmax = None; _ } ] -> ()
   | ir -> Alcotest.failf "a{70,}: %s" (Ir.to_string ir))

let test_lower_alternation () =
  (match lower "ab|cd|ef" with
   | Ir.Chain [ _; _; _ ] -> ()
   | ir -> Alcotest.failf "ab|cd|ef: %s" (Ir.to_string ir))

(* --- Minimal mode ------------------------------------------------------- *)

let test_minimal_mode () =
  (* No RANGE/NOT: [a-d] expands to a 4-char OR *)
  (match lower ~options:Lower.minimal_options "[a-d]" with
   | Ir.Base { op = I.Or; neg = false; chars = "abcd" } -> ()
   | ir -> Alcotest.failf "minimal [a-d]: %s" (Ir.to_string ir));
  (* bounded quantifiers unfold *)
  (match lower ~options:Lower.minimal_options "a{3}" with
   | Ir.Seq [ Ir.Base _; Ir.Base _; Ir.Base _ ] -> ()
   | ir -> Alcotest.failf "minimal a{3}: %s" (Ir.to_string ir));
  (* {1,2} becomes a greedy-ordered run alternation: 2 first *)
  (match lower ~options:Lower.minimal_options "a{1,2}" with
   | Ir.Chain [ Ir.Seq [ _; _ ]; Ir.Base _ ] -> ()
   | ir -> Alcotest.failf "minimal a{1,2}: %s" (Ir.to_string ir));
  (* lazy ordering flips: 1 first *)
  (match lower ~options:Lower.minimal_options "a{1,2}?" with
   | Ir.Chain [ Ir.Base _; Ir.Seq [ _; _ ] ] -> ()
   | ir -> Alcotest.failf "minimal a{1,2}?: %s" (Ir.to_string ir));
  (* unbounded keeps the hardware counter *)
  (match lower ~options:Lower.minimal_options "a+" with
   | Ir.Seq [ Ir.Base _; Ir.Quant { qmin = 0; qmax = None; _ } ] -> ()
   | ir -> Alcotest.failf "minimal a+: %s" (Ir.to_string ir))

(* Table 2 of the paper, exactly. *)
let test_table2_counts () =
  check_int "[a-zA-Z] minimal" 26 (count ~options:Lower.minimal_options "[a-zA-Z]");
  check_int "[a-zA-Z] advanced" 1 (count "[a-zA-Z]");
  check_int "[DBEZX]{7} minimal" 28 (count ~options:Lower.minimal_options "[DBEZX]{7}");
  check_int "[DBEZX]{7} advanced" 6 (count "[DBEZX]{7}");
  check_int ".{3,6} minimal" 1160 (count ~options:Lower.minimal_options ".{3,6}");
  check_int ".{3,6} advanced" 2 (count ".{3,6}");
  check_int "[^ ]* minimal" 66 (count ~options:Lower.minimal_options "[^ ]*");
  check_int "[^ ]* advanced" 2 (count "[^ ]*")

(* --- Back-end: fusion and jumps ------------------------------------------ *)

let test_fusion () =
  (* close fuses into the preceding base *)
  let p = program "(ab)+" in
  check_int "fused length" 3 (Array.length p); (* open, AND+QUANT, EoR *)
  check "fused close" true (p.(1).I.close = Some I.Quant_greedy && p.(1).I.base <> None);
  (* two closes: only innermost fuses. The optimiser would collapse
     (x+)+ to x+, so compile the nested form as written. *)
  let as_written = { Lower.default_options with optimize = false } in
  let p2 =
    (Compile.compile_exn ~options:as_written "((ab)+)+").Compile.program
  in
  check_int "nested quant length" 5 (Array.length p2);
  check "outer close standalone" true
    (p2.(3).I.base = None && p2.(3).I.close = Some I.Quant_greedy);
  (* empty alternative: open followed by standalone close (the
     optimiser would rewrite a| to a?, so again compile as written) *)
  let p3 = (Compile.compile_exn ~options:as_written "(a|)").Compile.program in
  check "empty member close standalone" true
    (Array.exists (fun i -> i.I.base = None && i.I.close = Some I.Close) p3)

let test_jump_resolution () =
  (* worked example: open at 0, fwd to EoR at 2, quant bwd 0 *)
  let p = program "([^A-Z])+" in
  (match p.(0).I.reference with
   | I.Ref_open o ->
     check_int "fwd" 2 o.I.fwd;
     check_int "bwd" 0 o.I.bwd;
     check_int "min" 1 o.I.min_count;
     check_int "max is unbounded" I.unbounded_max o.I.max_count;
     check "greedy" false o.I.lazy_mode
   | I.Ref_none | I.Ref_chars _ -> Alcotest.fail "expected open reference");
  (* alternation: member opens point at next member and chain end *)
  let p2 = program "ab|cd|ef" in
  (* layout: 0 open, 1 AND+)|, 2 open, 3 AND+)|, 4 open, 5 AND+), 6 EoR *)
  check_int "alt length" 7 (Array.length p2);
  (match p2.(0).I.reference, p2.(2).I.reference, p2.(4).I.reference with
   | I.Ref_open o0, I.Ref_open o2, I.Ref_open o4 ->
     check_int "o0 bwd to next member" 2 o0.I.bwd;
     check_int "o0 fwd to end" 6 o0.I.fwd;
     check "o0 counters disabled" true
       ((not o0.I.min_enabled) && not o0.I.max_enabled);
     check_int "o2 bwd" 2 o2.I.bwd;
     check_int "o2 fwd" 4 o2.I.fwd;
     check "last member no bwd" false o4.I.bwd_enabled;
     check_int "o4 fwd" 2 o4.I.fwd
   | _ -> Alcotest.fail "expected open references")

let test_lazy_close_opcode () =
  let p = program "(ab)+?" in
  check "lazy close opcode" true (p.(1).I.close = Some I.Quant_lazy);
  (match p.(0).I.reference with
   | I.Ref_open o -> check "lazy bit" true o.I.lazy_mode
   | I.Ref_none | I.Ref_chars _ -> Alcotest.fail "open ref")

let test_jump_overflow () =
  (* A huge minimal-mode alternation chain exceeds the 6-bit backward
     jump between members. *)
  match Lower.lower_pattern ~options:Lower.minimal_options ".{3,6}" with
  | Error m -> Alcotest.failf "lowering failed: %s" m
  | Ok ir ->
    (match Emit.program_of_ir ir with
     | Error (Emit.Forward_jump_too_long _ | Emit.Backward_jump_too_long _) -> ()
     | Ok _ -> Alcotest.fail "expected a jump-overflow error")

let test_ir_count_matches_emission () =
  (* Ir.instruction_count must equal the emitted code size. *)
  List.iter
    (fun pat ->
       let ir = lower pat in
       check_int pat (Ir.instruction_count ir)
         (P.code_size (Emit.program_of_ir_exn ir)))
    [ "abc"; "(ab)+"; "a|b|c"; "[a-z]{3,9}x"; "((ab)+|cd)?e"; "[acegik]+";
      "x(y|z){2,5}?w"; "a{100}"; "" ]

(* --- Driver ------------------------------------------------------------- *)

let test_compile_errors () =
  (match Compile.compile "(a" with
   | Error (Compile.Frontend_error _) -> ()
   | Error (Compile.Backend_error _ | Compile.Verify_error _) ->
     Alcotest.fail "wrong error class"
   | Ok _ -> Alcotest.fail "expected error");
  check "error message" true
    (match Compile.compile "[z-a]" with
     | Error e -> String.length (Compile.error_message e) > 0
     | Ok _ -> false)

let test_compile_stats () =
  let c = compile "([^A-Z])+" in
  let s = Compile.stats c in
  check_int "code size" 2 s.Compile.code_size;
  check_int "total" 3 s.Compile.total_instructions;
  check_int "binary bytes" (12 + (3 * 8)) s.Compile.binary_bytes;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "disassembly mentions RANGE" true
    (contains (Compile.disassemble c) "RANGE")

let test_compile_binary () =
  let c = compile "(ab|cd)+x" in
  match Compile.to_binary c with
  | Error e -> Alcotest.fail (Alveare_isa.Binary.error_message e)
  | Ok buf ->
    (match Alveare_isa.Binary.of_bytes buf with
     | Ok p -> check "binary round trip" true (P.equal p c.Compile.program)
     | Error e -> Alcotest.fail (Alveare_isa.Binary.error_message e))

(* --- Properties ----------------------------------------------------------- *)

(* Every generated AST compiles to a program the verifier accepts
   ([compile_ast] runs it: a [Verify_error] fails the property) whose
   code size matches the IR count. *)
let qcheck_emission =
  QCheck2.Test.make ~name:"lower+emit produces valid programs" ~count:400
    ~print:Gen_ast.print_ast Gen_ast.gen_ast (fun ast ->
      match Compile.compile_ast ast with
      | Error (Compile.Backend_error (Emit.Forward_jump_too_long _))
      | Error (Compile.Backend_error (Emit.Backward_jump_too_long _)) ->
        QCheck2.assume_fail () (* legitimately too long for the jump fields *)
      | Error e -> QCheck2.Test.fail_reportf "%s" (Compile.error_message e)
      | Ok c -> Ir.instruction_count c.Compile.ir = P.code_size c.Compile.program)

let () =
  Alcotest.run "compiler"
    [ ( "lowering",
        [ Alcotest.test_case "classes" `Quick test_lower_classes;
          Alcotest.test_case "literals" `Quick test_lower_literals;
          Alcotest.test_case "quantifiers" `Quick test_lower_quantifiers;
          Alcotest.test_case "alternation" `Quick test_lower_alternation;
          Alcotest.test_case "minimal mode" `Quick test_minimal_mode;
          Alcotest.test_case "table 2 counts" `Quick test_table2_counts ] );
      ( "backend",
        [ Alcotest.test_case "fusion" `Quick test_fusion;
          Alcotest.test_case "jump resolution" `Quick test_jump_resolution;
          Alcotest.test_case "lazy close" `Quick test_lazy_close_opcode;
          Alcotest.test_case "jump overflow" `Quick test_jump_overflow;
          Alcotest.test_case "count = emission" `Quick
            test_ir_count_matches_emission ] );
      ( "driver",
        [ Alcotest.test_case "errors" `Quick test_compile_errors;
          Alcotest.test_case "stats" `Quick test_compile_stats;
          Alcotest.test_case "binary" `Quick test_compile_binary ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_emission ]) ]
