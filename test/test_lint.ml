(* Corpus-level guarantee behind the @lint gate: every pattern the
   workload samplers (PowerEN / Protomata / Snort) and the examples
   emit compiles to a program the static verifier accepts with zero
   violations, and the curated example patterns carry no
   warning-severity lint diagnostics. *)

module Compile = Alveare_compiler.Compile
module Verify = Alveare_isa.Verify
module Lint = Alveare_analysis.Lint
module Rng = Alveare_workloads.Rng

let compile_and_verify pat =
  (* Compile.compile already runs the verifier; re-running it here
     gives the report so the test can also assert full reachability. *)
  match Compile.compile pat with
  | Error e -> Alcotest.failf "%S: %s" pat (Compile.error_message e)
  | Ok c ->
    (match Verify.run c.Compile.program with
     | Error (v :: _) ->
       Alcotest.failf "%S rejected: %s" pat (Verify.violation_message v)
     | Error [] -> Alcotest.failf "%S rejected with no violations" pat
     | Ok r ->
       if r.Verify.reachable <> r.Verify.instructions then
         Alcotest.failf "%S: dead code in compiler output" pat;
       c)

let verify_sampler name patterns =
  Alcotest.test_case name `Quick (fun () ->
      List.iter (fun p -> ignore (compile_and_verify p)) patterns)

let powren () = Alveare_workloads.Powren.patterns (Rng.create 11) 200
let protomata () = Alveare_workloads.Protomata.patterns (Rng.create 12) 200
let snort () = Alveare_workloads.Snort.patterns (Rng.create 13) 200

(* The example programs' pattern sets, kept in sync by hand with
   examples/*.ml (they are string literals there, not exported). *)
let example_patterns =
  [ (* examples/quickstart.ml *)
    "([^A-Z])+";
    (* examples/snort_dpi.ml *)
    "GET /admin[a-z0-9_]{0,16}\\.php";
    "(\\.\\./){2,8}[a-z]{2,12}";
    "(user|login|passwd)=[^&\\r\\n]{1,24}";
    "\\x90{8,40}";
    "cmd=[^&\\r\\n]{0,20}[;|`]";
    "User-Agent: (sqlmap|nikto|nmap)";
    (* examples/log_scanner.ml *)
    "(ERROR|FATAL|PANIC)";
    "WARN(ING)?";
    "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}";
    "took [0-9]{4,8}ms";
    "(api|secret)_key=[A-Za-z0-9]{16,32}";
    "at [a-z_.]{3,40}:[0-9]{1,5}";
    (* examples/binary_patterns.ml *)
    "\\x7fELF[\\x01\\x02][\\x01\\x02]";
    "\\x89PNG\\r\\n\\x1a\\n";
    "\\x90{6,32}";
    "\\xcd\\x80";
    "M\\x00Z\\x00";
    "[\\xf0-\\xff]{4,8}";
    (* examples/protein_motifs.ml *)
    "[ST][ACDEFGHIKLMNPQRSTVWY][RK]";
    "[ST][ACDEFGHIKLMNPQRSTVWY]{2}[DE]" ]

let test_examples () =
  List.iter
    (fun pat ->
       let c = compile_and_verify pat in
       if Lint.has_warnings c.Compile.lint then
         let d = List.find (fun d -> d.Lint.severity = Lint.Warning) c.Compile.lint in
         Alcotest.failf "%S has a lint warning: %s" pat d.Lint.message)
    example_patterns

(* Workload patterns may trip lint heuristics (they are adversarial by
   design) but must always PARSE for the linter — a lint crash on a
   generated rule would break the gate. *)
let test_lint_total_on_workloads () =
  List.iter
    (fun p ->
       match Lint.pattern p with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "lint failed to parse %S: %s" p e)
    (powren () @ protomata () @ snort ())

(* Prefilter extraction over the same 600-pattern sampler sweep: must be
   total (compilation carries it, so a raise would surface here), and
   the fraction of patterns yielding a non-trivial literal prefilter is
   reported on stderr — a coverage gauge for the Aho-Corasick ruleset
   path, not an assertion (sampler drift should not break the gate). *)
let test_prefilter_total_on_workloads () =
  let module Pf = Alveare_prefilter.Prefilter in
  let total = ref 0 and with_lits = ref 0 and skip_usable = ref 0 in
  List.iter
    (fun p ->
       match Compile.compile p with
       | Error e -> Alcotest.failf "%S failed to compile: %s" p (Compile.error_message e)
       | Ok c ->
         let t = c.Compile.prefilter in
         ignore (Pf.describe t);
         incr total;
         if Pf.usable_literals t <> None then incr with_lits;
         if Pf.first_usable t then incr skip_usable)
    (powren () @ protomata () @ snort ());
  Printf.eprintf
    "prefilter sweep: %d patterns, %d (%.1f%%) with a literal prefilter, \
     %d (%.1f%%) with a usable first-set skip loop\n%!"
    !total !with_lits
    (100.0 *. float_of_int !with_lits /. float_of_int (max 1 !total))
    !skip_usable
    (100.0 *. float_of_int !skip_usable /. float_of_int (max 1 !total))

(* Rewrite optimiser over the same 600-pattern sampler sweep: both the
   optimised and unoptimised compilations must succeed and pass the
   verifier with full reachability (totality of the mid-end on real
   rule shapes), the optimised binary must never be larger, and the
   per-workload aggregate size reduction is reported on stderr — the
   same corpus the bench gate holds to >= 10% geomean. *)
let test_opt_total_on_workloads () =
  let sweep name patterns =
    let before = ref 0 and after = ref 0 and log_ratio = ref 0.0 and n = ref 0 in
    List.iter
      (fun p ->
         let compiled optimize =
           match
             Compile.compile
               ~options:{ Alveare_ir.Lower.default_options with optimize } p
           with
           | Error e ->
             Alcotest.failf "%S (optimize:%b) failed to compile: %s" p optimize
               (Compile.error_message e)
           | Ok c ->
             (match Verify.run c.Compile.program with
              | Error _ -> Alcotest.failf "%S (optimize:%b) rejected" p optimize
              | Ok r ->
                if r.Verify.reachable <> r.Verify.instructions then
                  Alcotest.failf "%S (optimize:%b): dead code" p optimize;
                c)
         in
         let o = compiled true and r = compiled false in
         let so = Compile.code_size o and sr = Compile.code_size r in
         if so > sr then
           Alcotest.failf "%S: optimised binary larger (%d > %d)" p so sr;
         before := !before + sr;
         after := !after + so;
         log_ratio := !log_ratio +. log (float_of_int sr /. float_of_int so);
         incr n)
      patterns;
    let geomean = (exp (!log_ratio /. float_of_int (max 1 !n)) -. 1.0) *. 100.0 in
    Printf.eprintf
      "opt sweep %-10s %3d patterns: %4d -> %4d words (geomean reduction %.1f%%)\n%!"
      name !n !before !after geomean
  in
  sweep "powren" (powren ());
  sweep "protomata" (protomata ());
  sweep "snort" (snort ())

let () =
  Alcotest.run "lint-corpus"
    [ ( "verify-workloads",
        [ verify_sampler "powren" (powren ());
          verify_sampler "protomata" (protomata ());
          verify_sampler "snort" (snort ()) ] );
      ( "examples",
        [ Alcotest.test_case "verify + lint clean" `Quick test_examples;
          Alcotest.test_case "lint total on samplers" `Quick
            test_lint_total_on_workloads;
          Alcotest.test_case "prefilter total on samplers" `Quick
            test_prefilter_total_on_workloads;
          Alcotest.test_case "optimiser total on samplers" `Quick
            test_opt_total_on_workloads ] ) ]
