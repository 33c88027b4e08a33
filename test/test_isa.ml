(* Unit + property tests for the ISA layer: instruction construction and
   validation, bit-accurate encoding against the paper's worked example,
   the verifier's structural phase, and the binary container format. *)

module I = Alveare_isa.Instruction
module E = Alveare_isa.Encoding
module P = Alveare_isa.Program
module B = Alveare_isa.Binary
module V = Alveare_isa.Verify

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok = function Ok _ -> true | Error _ -> false

(* --- Instruction construction and validation ------------------------- *)

let test_eor () =
  check "eor is eor" true (I.is_eor I.eor);
  check "base is not eor" false (I.is_eor (I.base I.And "ab"));
  check "eor validates" true (ok (I.validate I.eor))

let test_base_validation () =
  check "AND 4 chars ok" true (ok (I.validate (I.base I.And "abcd")));
  check "OR 1 char ok" true (ok (I.validate (I.base I.Or "a")));
  check "RANGE pair ok" true (ok (I.validate (I.base I.Range "az")));
  check "RANGE two pairs ok" true (ok (I.validate (I.base I.Range "azAZ")));
  check "RANGE odd chars rejected" false
    (ok (I.validate (I.base I.Range "abc")));
  check "5 chars rejected" false
    (ok (I.validate { (I.base I.And "abcd") with reference = I.Ref_chars "abcde" }));
  check "empty chars rejected" false
    (ok (I.validate { (I.base I.And "a") with reference = I.Ref_chars "" }));
  check "base without reference rejected" false
    (ok (I.validate { (I.base I.And "a") with reference = I.Ref_none }))

let test_not_composition () =
  check "NOT OR ok" true (ok (I.validate (I.base ~neg:true I.Or "ab")));
  check "NOT RANGE ok" true (ok (I.validate (I.base ~neg:true I.Range "AZ")));
  check "NOT AND rejected" false (ok (I.validate (I.base ~neg:true I.And "ab")));
  check "bare NOT rejected" false
    (ok (I.validate { I.eor with neg = true }))

let default_open =
  { I.min_enabled = true; max_enabled = true; bwd_enabled = true;
    fwd_enabled = true; lazy_mode = false; min_count = 1;
    max_count = I.unbounded_max; bwd = 0; fwd = 2 }

let test_open_validation () =
  check "open ok" true (ok (I.validate (I.open_sub default_open)));
  check "min > 63 rejected" false
    (ok (I.validate (I.open_sub { default_open with min_count = 64 })));
  check "negative bwd rejected" false
    (ok (I.validate (I.open_sub { default_open with bwd = -1 })));
  check "fwd 511 ok (extension)" true
    (ok (I.validate (I.open_sub { default_open with fwd = 511 })));
  check "fwd 512 rejected" false
    (ok (I.validate (I.open_sub { default_open with fwd = 512 })));
  check "open without open ref rejected" false
    (ok (I.validate { I.eor with opn = true }));
  check "open ref without open bit rejected" false
    (ok (I.validate { I.eor with reference = I.Ref_open default_open }));
  check "open + base rejected" false
    (ok (I.validate { (I.base I.And "a") with opn = true }));
  check "open + close rejected" false
    (ok
       (I.validate
          { (I.open_sub default_open) with close = Some I.Quant_greedy }))

let test_fuse_close () =
  let fused = I.fuse_close (I.base I.Or "ab") I.Alt_close in
  check "fused has close" true (fused.I.close = Some I.Alt_close);
  check "fuse twice raises" true
    (try
       ignore (I.fuse_close fused I.Close);
       false
     with Invalid_argument _ -> true)

let test_pp () =
  check_string "pp eor" "EOR" (I.to_string I.eor);
  let i = I.fuse_close (I.base ~neg:true I.Range "AZ") I.Quant_greedy in
  check_string "pp not-range-quant" "NOT RANGE 'AZ' )QUANT" (I.to_string i)

(* --- Encoding: the paper's worked example, bit for bit ---------------- *)

(* "([^A-Z])+" (paper Fig. 1, Fig. 2, Table 1 captions). *)
let worked_example : I.t array =
  [| I.open_sub default_open;
     I.fuse_close (I.base ~neg:true I.Range "AZ") I.Quant_greedy;
     I.eor |]

let test_worked_example_bits () =
  let w0 = E.encode_exn worked_example.(0) in
  let w1 = E.encode_exn worked_example.(1) in
  let w2 = E.encode_exn worked_example.(2) in
  (* Table 1 caption: opcodes 1000000, 0111010, 0000000. *)
  check_string "opcode 0" "1000000" (E.opcode_bits w0);
  check_string "opcode 1" "0111010" (E.opcode_bits w1);
  check_string "opcode 2" "0000000" (E.opcode_bits w2);
  (* Fig. 1 caption: enable 1100, reference 'A' 'Z'. *)
  check_string "enable 1" "1100" (E.enable_bits w1);
  check_string "reference 1" "01000001010110100000000000000000"
    (E.reference_bits w1);
  (* Fig. 2 caption: open enablers 11110 + 27-bit payload. *)
  check_string "open enablers" "11110" (E.open_enabler_bits w0);
  check_string "open payload" "000000001111111000000000010"
    (E.open_payload_bits w0)

let test_decode_worked_example () =
  Array.iter
    (fun i ->
       let w = E.encode_exn i in
       match E.decode w with
       | Ok i' -> check "round trip" true (I.equal i i')
       | Error e -> Alcotest.fail (E.error_message e))
    worked_example

let test_strict_mode () =
  let big = I.open_sub { default_open with fwd = 100 } in
  check "relaxed accepts fwd 100" true (ok (E.encode big));
  check "strict rejects fwd 100" false (ok (E.encode ~strict:true big));
  check "strict accepts fwd 63" true
    (ok (E.encode ~strict:true (I.open_sub { default_open with fwd = 63 })))

let test_decode_rejections () =
  (* close field 101/110/111 are unassigned *)
  let bad_close = 0b0000101 lsl 36 in
  check "unknown close code" false (ok (E.decode bad_close));
  (* non-prefix enable pattern 1010 with an OR opcode *)
  let bad_enable = (0b0001000 lsl 36) lor (0b1010 lsl 32) in
  check "non-prefix enables" false (ok (E.decode bad_enable));
  (* bits above 43 *)
  check "reserved high bits" false (ok (E.decode (1 lsl 43)));
  (* NOT+AND opcode is structurally invalid *)
  let not_and = 0b0110000 lsl 36 in
  check "NOT AND rejected" false (ok (E.decode not_and))

let test_encode_decode_qcheck () =
  (* Generate arbitrary valid instructions and require exact round trip. *)
  let open QCheck2 in
  let gen_instr =
    let open Gen in
    let gen_chars n =
      string_size ~gen:(map Char.chr (int_range 0 255)) (return n)
    in
    oneof
      [ return I.eor;
        (let* op = oneofl [ I.And; I.Or; I.Range ] in
         let* neg =
           match op with I.And -> return false | I.Or | I.Range -> bool
         in
         let* n = (match op with I.Range -> oneofl [ 2; 4 ] | _ -> int_range 1 4) in
         let* chars = gen_chars n in
         let* close =
           oneofl
             [ None; Some I.Close; Some I.Quant_greedy; Some I.Quant_lazy;
               Some I.Alt_close ]
         in
         return { (I.base ~neg op chars) with close });
        (let* min_enabled = bool and* max_enabled = bool in
         let* bwd_enabled = bool and* fwd_enabled = bool and* lazy_mode = bool in
         let* min_count = int_bound 63 and* max_count = int_bound 63 in
         let* bwd = int_bound 63 and* fwd = int_bound 511 in
         return
           (I.open_sub
              { I.min_enabled; max_enabled; bwd_enabled; fwd_enabled;
                lazy_mode; min_count; max_count; bwd; fwd }));
        (let* close =
           oneofl [ I.Close; I.Quant_greedy; I.Quant_lazy; I.Alt_close ]
         in
         return (I.close close)) ]
  in
  let prop i =
    match E.encode i with
    | Error e -> Test.fail_reportf "encode failed: %s" (E.error_message e)
    | Ok w ->
      (match E.decode w with
       | Ok i' -> I.equal i i'
       | Error e -> Test.fail_reportf "decode failed: %s" (E.error_message e))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"encode/decode round trip" ~count:2000
       ~print:I.to_string gen_instr prop)

let test_decode_fuzz_qcheck () =
  (* Arbitrary 43-bit words either decode to a valid instruction whose
     re-encoding reproduces the word, or are rejected — never crash,
     never round-trip inconsistently. *)
  let open QCheck2 in
  let gen_word = Gen.(map (fun b -> Int64.to_int b land E.word_mask) (int_bound max_int |> map Int64.of_int)) in
  let prop w =
    match E.decode w with
    | Error _ -> true
    | Ok i ->
      (match I.validate i with
       | Error _ -> Test.fail_reportf "decoded invalid instruction"
       | Ok () ->
         (match E.encode i with
          | Error e -> Test.fail_reportf "re-encode failed: %s" (E.error_message e)
          | Ok w' ->
            (* enable bits of OPEN/close-only words are don't-care zero,
               so compare through a second decode *)
            (match E.decode w' with
             | Ok i' -> I.equal i i'
             | Error e -> Test.fail_reportf "re-decode failed: %s" (E.error_message e))))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"decode fuzz: reject or round-trip" ~count:5000
       ~print:(Printf.sprintf "0x%011x") gen_word prop)

(* --- Program structure ------------------------------------------------- *)

let quant_open fwd =
  I.open_sub { default_open with fwd }

let test_program_validation () =
  let okp p = V.structural p = [] in
  check "worked example valid" true (okp worked_example);
  check "empty invalid" false (okp [||]);
  check "missing EoR" false (okp [| I.base I.And "a" |]);
  check "interior EoR" false (okp [| I.eor; I.base I.And "a"; I.eor |]);
  check "jump out of range" false (okp [| quant_open 60; I.close I.Quant_greedy; I.eor |]);
  check "disabled jump out of range" false
    (okp
       [| I.open_sub { default_open with fwd = 60; fwd_enabled = false };
          I.close I.Quant_greedy; I.eor |]);
  check "unbalanced close" false (okp [| I.close I.Close; I.eor |]);
  check "unclosed open" false (okp [| quant_open 1; I.eor |]);
  check "mismatched close" false (okp [| quant_open 2; I.close I.Close; I.eor |]);
  check_int "code size excludes EoR" 2 (P.code_size worked_example)

let test_histogram () =
  let h = P.histogram worked_example in
  check_int "opens" 1 h.P.n_open;
  check_int "ranges" 1 h.P.n_base_range;
  check_int "nots" 1 h.P.n_not;
  check_int "greedy quants" 1 h.P.n_quant_greedy;
  check_int "eors" 1 h.P.n_eor;
  check_int "ands" 0 h.P.n_base_and

(* --- Binary container -------------------------------------------------- *)

let test_binary_round_trip () =
  match B.to_bytes worked_example with
  | Error e -> Alcotest.fail (B.error_message e)
  | Ok buf ->
    check_int "size" (B.size_of_program worked_example) (Bytes.length buf);
    (match B.of_bytes buf with
     | Ok p -> check "program equal" true (P.equal p worked_example)
     | Error e -> Alcotest.fail (B.error_message e))

let test_binary_rejections () =
  let buf = Result.get_ok (B.to_bytes worked_example) in
  let corrupt f =
    let b = Bytes.copy buf in
    f b;
    match B.of_bytes b with Ok _ -> false | Error _ -> true
  in
  check "bad magic" true (corrupt (fun b -> Bytes.set b 0 'X'));
  check "bad version" true (corrupt (fun b -> Bytes.set_uint8 b 4 99));
  check "truncated header" true
    (match B.of_bytes (Bytes.sub buf 0 6) with Ok _ -> false | Error _ -> true);
  check "truncated words" true
    (match B.of_bytes (Bytes.sub buf 0 (Bytes.length buf - 8)) with
     | Ok _ -> false
     | Error _ -> true);
  check "corrupted word" true
    (corrupt (fun b ->
         (* overwrite instruction 1 with an invalid opcode *)
         Bytes.set_int64_le b (B.header_size + B.word_size)
           (Int64.shift_left 0b0000111L 36)));
  check "count mismatch" true
    (corrupt (fun b -> Bytes.set_int32_le b 8 100l))

let test_binary_file_io () =
  let path = Filename.temp_file "alveare" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       (match B.write_file path worked_example with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (B.error_message e));
       match B.read_file path with
       | Ok p -> check "file round trip" true (P.equal p worked_example)
       | Error e -> Alcotest.fail (B.error_message e))

let () =
  Alcotest.run "isa"
    [ ( "instruction",
        [ Alcotest.test_case "eor" `Quick test_eor;
          Alcotest.test_case "base validation" `Quick test_base_validation;
          Alcotest.test_case "NOT composition" `Quick test_not_composition;
          Alcotest.test_case "open validation" `Quick test_open_validation;
          Alcotest.test_case "fuse close" `Quick test_fuse_close;
          Alcotest.test_case "pretty printing" `Quick test_pp ] );
      ( "encoding",
        [ Alcotest.test_case "worked example bits" `Quick
            test_worked_example_bits;
          Alcotest.test_case "worked example round trip" `Quick
            test_decode_worked_example;
          Alcotest.test_case "strict mode" `Quick test_strict_mode;
          Alcotest.test_case "decode rejections" `Quick test_decode_rejections;
          test_encode_decode_qcheck ();
          test_decode_fuzz_qcheck () ] );
      ( "program",
        [ Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "binary",
        [ Alcotest.test_case "round trip" `Quick test_binary_round_trip;
          Alcotest.test_case "rejections" `Quick test_binary_rejections;
          Alcotest.test_case "file io" `Quick test_binary_file_io ] ) ]
