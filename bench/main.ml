(* Benchmark harness: one Bechamel test per paper artefact (Table 2,
   Figure 4 per benchmark suite, Figure 5, the scaling sweep and the
   area model), measuring the wall-clock cost of regenerating each one
   at a reduced scale — then a full quick-scale regeneration of every
   table so the run also reproduces the paper's rows (bench_output.txt
   carries both). Timings are also written as machine-readable JSON
   (name -> ns/run) to bench_output.json so the perf trajectory can be
   tracked across PRs.

     dune exec bench/main.exe
     dune exec bench/main.exe -- --workers 4   # parallel regeneration
*)

open Bechamel
open Toolkit
module E = Alveare_harness.Experiments
module A = Alveare_harness.Ablation
module X = Alveare_harness.Extended
module T = Alveare_harness.Table
module Benchmark_suite = Alveare_workloads.Benchmark

let workers = ref 1
let json_path = ref "bench_output.json"

let () =
  Arg.parse
    [ ("--workers", Arg.Set_int workers,
       "N  host domains for the regeneration pass (results identical; \
        wall-clock only)");
      ("--json", Arg.Set_string json_path,
       "FILE  where to write the machine-readable timings (default \
        bench_output.json)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--workers N] [--json FILE]"

(* A very small evaluation scale so each bechamel iteration is cheap. *)
let bench_scale : E.scale =
  { E.suite_spec =
      (fun kind ->
         { (Benchmark_suite.quick_spec ~seed:13 kind) with
           Benchmark_suite.n_patterns = 4;
           stream_bytes = 256 * 1024 });
    sim_sample_bytes = 4 * 1024;
    gpu_sample_bytes = 1024 }

let table2_test =
  Test.make ~name:"table2-isa-primitives" (Staged.stage (fun () -> E.table2 ()))

let figure4_test kind =
  Test.make
    ~name:(Printf.sprintf "figure4-exec-time-%s" (Benchmark_suite.kind_name kind))
    (Staged.stage (fun () -> E.evaluate_benchmark ~scale:bench_scale kind))

let figure5_test =
  (* Figure 5 = Figure 4 results through the energy model; benchmark the
     efficiency computation on one suite. *)
  Test.make ~name:"figure5-energy-efficiency"
    (Staged.stage (fun () ->
         let r = E.evaluate_benchmark ~scale:bench_scale Benchmark_suite.Powren in
         List.map (fun e -> e.E.avg_efficiency) r.E.engines))

let scaling_test =
  Test.make ~name:"scaling-1-to-10-cores"
    (Staged.stage (fun () ->
         E.scaling ~core_counts:[ 1; 10 ] ~scale:bench_scale
           Benchmark_suite.Protomata))

let area_test =
  Test.make ~name:"area-model" (Staged.stage (fun () -> E.area_table ()))

let tiny_study = { A.n_patterns = 4; sample_bytes = 4 * 1024; seed = 13 }

let counters_test =
  Test.make ~name:"ablation-counters" (Staged.stage (fun () -> A.counters ()))

let fabric_test =
  Test.make ~name:"ablation-fabric"
    (Staged.stage (fun () -> A.fabric ~scale:tiny_study ()))

let breakdown_test =
  Test.make ~name:"extended-energy-breakdown"
    (Staged.stage (fun () -> X.energy_breakdown ~scale:tiny_study ()))

(* Micro-benchmarks of the core library itself, one per pipeline stage. *)
let compile_test =
  Test.make ~name:"micro-compile-snort-rule"
    (Staged.stage (fun () ->
         Alveare_compiler.Compile.compile_exn
           "Host: [a-z0-9.-]{4,24}\\.(com|net|org)"))

let sim_scan_test =
  let program =
    (Alveare_compiler.Compile.compile_exn "ab+c").Alveare_compiler.Compile.program
  in
  let rng = Alveare_workloads.Rng.create 5 in
  let input =
    String.init 16384 (fun _ -> Alveare_workloads.Streams.lowercase_text rng)
  in
  Test.make ~name:"micro-simulate-16KiB-scan"
    (Staged.stage (fun () -> Alveare_arch.Core.find_all program input))

let sim_scan_prefilter_test =
  let c = Alveare_compiler.Compile.compile_exn "ab+c" in
  let rng = Alveare_workloads.Rng.create 5 in
  let input =
    String.init 16384 (fun _ -> Alveare_workloads.Streams.lowercase_text rng)
  in
  Test.make ~name:"micro-simulate-16KiB-scan-prefilter"
    (Staged.stage (fun () ->
         Alveare_arch.Core.find_all
           ~prefilter:c.Alveare_compiler.Compile.prefilter
           c.Alveare_compiler.Compile.program input))

let tests =
  Test.make_grouped ~name:"alveare"
    [ table2_test;
      figure4_test Benchmark_suite.Powren;
      figure4_test Benchmark_suite.Protomata;
      figure4_test Benchmark_suite.Snort;
      figure5_test;
      scaling_test;
      area_test;
      counters_test;
      fabric_test;
      breakdown_test;
      compile_test;
      sim_scan_test;
      sim_scan_prefilter_test ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare

let print_results results =
  Fmt.pr "== Bechamel timings (host wall clock per regeneration) ==@.";
  List.iter
    (fun (name, ols) ->
       match Analyze.OLS.estimates ols with
       | Some [ run_ns ] ->
         let pretty =
           if run_ns >= 1e9 then Printf.sprintf "%8.3f s " (run_ns /. 1e9)
           else if run_ns >= 1e6 then Printf.sprintf "%8.3f ms" (run_ns /. 1e6)
           else Printf.sprintf "%8.3f us" (run_ns /. 1e3)
         in
         Fmt.pr "  %-42s %s/run@." name pretty
       | Some _ | None -> Fmt.pr "  %-42s (no estimate)@." name)
    results;
  Fmt.pr "@."

(* Machine-readable sibling of the text report: a flat {"name": value}
   map. Bechamel timings land as alveare/... -> ns/run; the prefilter
   ablation adds prefilter/... counters and seconds. Names are
   identifiers, so escaping quotes and backslashes covers the whole JSON
   string grammar here. *)
let timing_entries results =
  List.filter_map
    (fun (name, ols) ->
       match Analyze.OLS.estimates ols with
       | Some [ run_ns ] -> Some (name, run_ns)
       | Some _ | None -> None)
    results

let write_json path entries =
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let oc = open_out path in
  let entries =
    List.map
      (fun (name, v) -> Printf.sprintf "  \"%s\": %.3f" (escape name) v)
      entries
  in
  output_string oc "{\n";
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n}\n";
  close_out oc;
  Fmt.pr "wrote %s (%d entries)@.@." path (List.length entries)

(* --- Plan ablation ------------------------------------------------------

   The pre-decoded plan executor against the instruction-at-a-time
   interpreter it replaced (the test oracle Core_oracle; the "legacy"
   keys keep their names) on the same 16 KiB scan the micro benchmark
   uses: wall time per scan for both paths, the speedup, minor-heap
   words allocated per scan (the plan path's are its one scratch and
   the span list; its inner loop never allocates), and identity flags
   over the hit list and the full stats record — which must never
   differ; the compare gate fails the build if they do, or if the
   speedup falls under its floor. *)

module Core = Alveare_arch.Core
module Core_oracle = Alveare_test_support.Core_oracle

let plan_iters = 100

let plan_ablation () : (string * float) list =
  let c = Alveare_compiler.Compile.compile_exn "ab+c" in
  let program = c.Alveare_compiler.Compile.program in
  let plan = c.Alveare_compiler.Compile.plan in
  let rng = Alveare_workloads.Rng.create 5 in
  let input =
    String.init 16384 (fun _ -> Alveare_workloads.Streams.lowercase_text rng)
  in
  let run_plan () = Core.find_all ~plan program input in
  let run_legacy () = Core_oracle.find_all program input in
  (* correctness flags from one instrumented scan per path *)
  let plan_stats = Core.fresh_stats () in
  let plan_hits = Core.find_all ~stats:plan_stats ~plan program input in
  let legacy_stats = Core.fresh_stats () in
  let legacy_hits = Core_oracle.find_all ~stats:legacy_stats program input in
  let hits_identical = plan_hits = legacy_hits in
  let stats_identical = plan_stats = legacy_stats in
  let time f =
    ignore (f ()); (* warm *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to plan_iters do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int plan_iters
  in
  let minor_words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  let plan_ns = time run_plan in
  let legacy_ns = time run_legacy in
  let plan_mw = minor_words run_plan in
  let legacy_mw = minor_words run_legacy in
  let speedup = legacy_ns /. Float.max 1.0 plan_ns in
  Fmt.pr "== Plan ablation (16 KiB scan, pattern \"ab+c\") ==@.";
  Fmt.pr
    "  legacy %.1f us/scan, plan %.1f us/scan (%.2fx), minor words \
     %.0f -> %.0f, hits %s, stats %s@.@."
    (legacy_ns /. 1e3) (plan_ns /. 1e3) speedup legacy_mw plan_mw
    (if hits_identical then "identical" else "DIVERGED")
    (if stats_identical then "identical" else "DIVERGED");
  [ ("plan/legacy-ns", legacy_ns);
    ("plan/plan-ns", plan_ns);
    ("plan/speedup", speedup);
    ("plan/minor-words-legacy", legacy_mw);
    ("plan/minor-words-plan", plan_mw);
    ("plan/hits-identical", if hits_identical then 1.0 else 0.0);
    ("plan/stats-identical", if stats_identical then 1.0 else 0.0) ]

(* --- Lazy-DFA overlay ablation ------------------------------------------

   The overlay executor against the plain plan path on a dense
   backtracking-heavy scan: an 8-way alternation under an unbounded
   counted repeat, over a 64 KiB corpus drawn from the repeat's
   alphabet plus a rare terminator byte, so the leading op admits no
   skip loop, every offset runs a real attempt, and attempts run long
   (the workload the table-per-byte path is for). Wall time per scan both ways, the same-run speedup, cache
   shape (states/transitions built), and identity flags over the hit
   list and the full stats record — the compare gate fails the build on
   any divergence or a speedup under its floor. *)

module Dfa = Alveare_arch.Dfa_overlay

let dfa_iters = 10

let dfa_pattern =
  "([a-b]|[c-d]|[e-f]|[g-h]|[i-j]|[k-l]|[m-n]|[o-p]){8,}[q-z]"

let dfa_ablation () : (string * float) list =
  let c = Alveare_compiler.Compile.compile_exn dfa_pattern in
  let program = c.Alveare_compiler.Compile.program in
  let plan = c.Alveare_compiler.Compile.plan in
  let fam =
    match c.Alveare_compiler.Compile.dfa with
    | Some fam -> fam
    | None -> failwith "dfa_ablation: pattern unexpectedly not covered"
  in
  let rng = Alveare_workloads.Rng.create 11 in
  (* one 'q' per 33 alphabet draws: runs of repeat-alphabet bytes
     average ~32 long, so attempts are long and per-byte execution
     cost dominates the shared scan-loop overhead *)
  let alphabet = "abcdefghijklmnopabcdefghijklmnopq" in
  let input =
    String.init 65536 (fun _ -> Alveare_workloads.Rng.char_of rng alphabet)
  in
  let run_dfa () = Core.find_all ~plan ~dfa:fam program input in
  let run_plan () = Core.find_all ~plan program input in
  (* correctness flags from one instrumented scan per path *)
  let dfa_stats = Core.fresh_stats () in
  let dfa_hits = Core.find_all ~stats:dfa_stats ~plan ~dfa:fam program input in
  let plan_stats = Core.fresh_stats () in
  let plan_hits = Core.find_all ~stats:plan_stats ~plan program input in
  let hits_identical = dfa_hits = plan_hits in
  let stats_identical = dfa_stats = plan_stats in
  (* Interleaved best-of-N: the speedup below is a hard compare gate,
     and a single contiguous timing window per path is exposed to
     scheduler noise on a shared machine. Alternating short passes puts
     both paths under the same load, the minor collection before each
     pass keeps GC debt from the span lists out of the window, and the
     min over passes is each path's unloaded cost. The first warm calls
     also finish building the transition table. *)
  ignore (run_dfa ());
  ignore (run_plan ());
  let one_pass f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to dfa_iters do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int dfa_iters
  in
  let dfa_best = ref infinity and plan_best = ref infinity in
  for _ = 1 to 6 do
    let d = one_pass run_dfa in
    let p = one_pass run_plan in
    if d < !dfa_best then dfa_best := d;
    if p < !plan_best then plan_best := p
  done;
  let dfa_ns = !dfa_best in
  let plan_ns = !plan_best in
  let speedup = plan_ns /. Float.max 1.0 dfa_ns in
  let cache = Dfa.family_stats fam in
  Fmt.pr "== Lazy-DFA overlay ablation (64 KiB dense scan, %s) ==@."
    dfa_pattern;
  Fmt.pr
    "  plan %.1f us/scan, dfa %.1f us/scan (%.2fx), %d states / %d \
     transitions built, hits %s, stats %s@.@."
    (plan_ns /. 1e3) (dfa_ns /. 1e3) speedup cache.Dfa.states_built
    cache.Dfa.transitions_built
    (if hits_identical then "identical" else "DIVERGED")
    (if stats_identical then "identical" else "DIVERGED");
  [ ("plan/dfa-plan-ns", plan_ns);
    ("plan/dfa-ns", dfa_ns);
    ("plan/dfa-speedup", speedup);
    ("plan/dfa-states-built", float_of_int cache.Dfa.states_built);
    ("plan/dfa-transitions-built", float_of_int cache.Dfa.transitions_built);
    ("plan/dfa-hits-identical", if hits_identical then 1.0 else 0.0);
    ("plan/dfa-stats-identical", if stats_identical then 1.0 else 0.0) ]

(* --- Prefilter ablation -------------------------------------------------

   The headline numbers for the software prefilter: scan a witness-
   planted stream through a sampled PowerEN and Snort ruleset with
   start-of-match prefiltering on and off, and record attempts started,
   offsets pruned, host wall-clock, and whether the match reports are
   identical (they must be — the prefilter is semantics-preserving).
   The counters are deterministic (seeded samplers, cycle-level
   simulator); only the seconds are host-dependent. *)

module Ruleset = Alveare_compiler.Ruleset
module Streams = Alveare_workloads.Streams
module Rng = Alveare_workloads.Rng

let ablation_rules = 16
let ablation_bytes = 128 * 1024

let prefilter_ablation () : (string * float) list =
  let workloads =
    [ ("powren", Alveare_workloads.Powren.patterns (Rng.create 21) ablation_rules,
       Streams.lowercase_text);
      ("snort", Alveare_workloads.Snort.patterns (Rng.create 22) ablation_rules,
       Streams.network) ]
  in
  Fmt.pr "== Prefilter ablation (ruleset scan, %d rules, %d KiB) ==@."
    ablation_rules (ablation_bytes / 1024);
  List.concat_map
    (fun (name, patterns, background) ->
       let specs =
         List.mapi (fun i p -> (Printf.sprintf "%s-%d" name i, p)) patterns
       in
       let rs = Ruleset.compile_exn specs in
       let asts =
         List.map
           (fun (r : Ruleset.compiled_rule) ->
              r.Ruleset.compiled.Alveare_compiler.Compile.ast)
           (Array.to_list rs.Ruleset.rules)
       in
       let stream =
         Streams.generate ~rng:(Rng.create 23) ~size:ablation_bytes ~background
           ~plant:(Streams.plant_of_patterns ~asts) ()
       in
       let time f =
         let t0 = Sys.time () in
         let r = f () in
         (r, Sys.time () -. t0)
       in
       let on, on_s = time (fun () -> Ruleset.scan rs stream.Streams.data) in
       let off, off_s =
         time (fun () -> Ruleset.scan ~prefilter:false rs stream.Streams.data)
       in
       let identical = on.Ruleset.hits = off.Ruleset.hits in
       let ratio den num = float_of_int den /. float_of_int (max 1 num) in
       Fmt.pr
         "  %-8s attempts %d -> %d (%.1fx fewer), pruned %d, AC rules %d/%d, \
          wall %.3fs -> %.3fs (%.2fx), hits %s (%d)@."
         name off.Ruleset.total_attempts on.Ruleset.total_attempts
         (ratio off.Ruleset.total_attempts on.Ruleset.total_attempts)
         on.Ruleset.total_offsets_pruned on.Ruleset.prefiltered_rules
         (Ruleset.size rs) off_s on_s
         (off_s /. Float.max 1e-9 on_s)
         (if identical then "identical" else "DIVERGED")
         (List.length on.Ruleset.hits);
       let k fmt = Printf.sprintf ("prefilter/%s/" ^^ fmt) name in
       [ (k "attempts-off", float_of_int off.Ruleset.total_attempts);
         (k "attempts-on", float_of_int on.Ruleset.total_attempts);
         (k "attempts-ratio",
          ratio off.Ruleset.total_attempts on.Ruleset.total_attempts);
         (k "offsets-scanned", float_of_int on.Ruleset.total_offsets_scanned);
         (k "offsets-pruned-on", float_of_int on.Ruleset.total_offsets_pruned);
         (k "offsets-pruned-off", float_of_int off.Ruleset.total_offsets_pruned);
         (k "prefiltered-rules", float_of_int on.Ruleset.prefiltered_rules);
         (k "seconds-off", off_s);
         (k "seconds-on", on_s);
         (k "speedup", off_s /. Float.max 1e-9 on_s);
         (k "hits", float_of_int (List.length on.Ruleset.hits));
         (k "hits-identical", if identical then 1.0 else 0.0) ])
    workloads

(* --- Optimiser ablation -------------------------------------------------

   The mid-end rewrite optimiser over the full 600-rule lint-sweep
   corpus (the three samplers at seeds 11/12/13, 200 rules each):
   emitted ISA words with the optimiser on and off and the geomean
   per-rule size reduction, gated at >= 10% in compare.ml. A scan
   subset then runs both compilations of each rule over a witness-
   planted stream: the hit lists must be bit-identical and the total
   backtracking attempts must not rise (the optimiser may only convert
   attempts into cheap vector-unit scan rejections), gated as
   opt/hits-identical and opt/attempts-delta <= 0. Every number here
   is deterministic (seeded samplers, cycle-level simulator) — nothing
   is host-dependent. *)

let opt_scan_rules = 12
let opt_scan_bytes = 64 * 1024

let opt_ablation () : (string * float) list =
  let workloads =
    [ ("powren",
       Alveare_workloads.Powren.patterns (Rng.create 11) 200,
       Streams.lowercase_text);
      ("protomata",
       Alveare_workloads.Protomata.patterns (Rng.create 12) 200,
       Streams.protein);
      ("snort",
       Alveare_workloads.Snort.patterns (Rng.create 13) 200,
       Streams.network) ]
  in
  Fmt.pr
    "== Optimiser ablation (600-rule sweep, %d-rule scan subsets of %d KiB) ==@."
    opt_scan_rules (opt_scan_bytes / 1024);
  let grand_before = ref 0 and grand_after = ref 0 in
  let grand_log = ref 0.0 and grand_n = ref 0 in
  let attempts_delta = ref 0 and hits_identical = ref true in
  let per_workload =
    List.concat_map
      (fun (name, patterns, background) ->
         let compiled =
           List.map
             (fun p ->
                ( Alveare_compiler.Compile.compile_exn p,
                  Alveare_compiler.Compile.compile_exn
                    ~options:
                      { Alveare_ir.Lower.default_options with optimize = false }
                    p ))
             patterns
         in
         let before = ref 0 and after = ref 0 in
         let lg = ref 0.0 and n = ref 0 in
         List.iter
           (fun (o, r) ->
              let so = Alveare_compiler.Compile.code_size o in
              let sr = Alveare_compiler.Compile.code_size r in
              before := !before + sr;
              after := !after + so;
              lg := !lg +. log (float_of_int sr /. float_of_int so);
              incr n)
           compiled;
         grand_before := !grand_before + !before;
         grand_after := !grand_after + !after;
         grand_log := !grand_log +. !lg;
         grand_n := !grand_n + !n;
         let reduction =
           (exp (!lg /. float_of_int (max 1 !n)) -. 1.0) *. 100.0
         in
         (* scan subset: both compilations over one planted stream *)
         let subset = List.filteri (fun i _ -> i < opt_scan_rules) compiled in
         let asts =
           List.map
             (fun ((_, r) : Alveare_compiler.Compile.compiled * _) ->
                r.Alveare_compiler.Compile.ast)
             subset
         in
         let stream =
           Streams.generate ~rng:(Rng.create 25) ~size:opt_scan_bytes
             ~background ~plant:(Streams.plant_of_patterns ~asts) ()
         in
         let delta = ref 0 in
         List.iter
           (fun (o, r) ->
              let scan (c : Alveare_compiler.Compile.compiled) =
                let stats = Core.fresh_stats () in
                let spans =
                  Core.find_all ~stats ~plan:c.Alveare_compiler.Compile.plan
                    ~prefilter:c.Alveare_compiler.Compile.prefilter
                    c.Alveare_compiler.Compile.program stream.Streams.data
                in
                (spans, stats.Core.attempts)
              in
              let os, oa = scan o in
              let rs, ra = scan r in
              if os <> rs then hits_identical := false;
              delta := !delta + (oa - ra))
           subset;
         attempts_delta := !attempts_delta + !delta;
         Fmt.pr
           "  %-10s %4d -> %4d words (geomean reduction %.1f%%), scan \
            attempts delta %+d@."
           name !before !after reduction !delta;
         let k fmt = Printf.sprintf ("opt/%s/" ^^ fmt) name in
         [ (k "isa-words-before", float_of_int !before);
           (k "isa-words-after", float_of_int !after);
           (k "reduction", reduction);
           (k "attempts-delta", float_of_int !delta) ])
      workloads
  in
  let reduction =
    (exp (!grand_log /. float_of_int (max 1 !grand_n)) -. 1.0) *. 100.0
  in
  Fmt.pr
    "  %-10s %4d -> %4d words (geomean reduction %.1f%%), attempts delta \
     %+d, hits %s@.@."
    "total" !grand_before !grand_after reduction !attempts_delta
    (if !hits_identical then "identical" else "DIVERGED");
  per_workload
  @ [ ("opt/isa-words-before", float_of_int !grand_before);
      ("opt/isa-words-after", float_of_int !grand_after);
      ("opt/reduction", reduction);
      ("opt/attempts-delta", float_of_int !attempts_delta);
      ("opt/hits-identical", if !hits_identical then 1.0 else 0.0) ]

(* --- One-pass fused ruleset ablation ------------------------------------

   The headline number for the fused multi-pattern engine: the full
   600-rule lint-sweep corpus (the three samplers at seeds 11/12/13,
   200 rules each) as ONE ruleset over one witness-planted stream —
   host wall time per scan of [Ruleset.scan] (the fused sweep) and of
   the rule-by-rule reference scan from the test support library, the
   same-run speedup (gated >= 2x in compare.ml, immune to machine
   drift), and an identity flag over the tagged hits, the per-rule
   cycles and every aggregate counter (the fused engine claims
   bit-identity, not just equal spans; any divergence fails the
   build).

   The stream is COLD traffic: background bytes drawn from printable
   punctuation outside every non-covered rule's first set and every
   extracted literal, with witnesses planted for a subset of each
   workload's rules (hundreds of real hits, so both match and miss
   paths run). Cold traffic is the regime the shared sweep exists
   for — the DPI common case where most bytes match nothing and scan
   cost dominates: the per-rule path walks the stream once per
   non-covered rule, the fused path walks it once in total. On warm
   workload-alphabet streams both paths are attempt-bound at identical
   candidate sets, so wall time converges by construction — that
   regime's bit-identity is pinned by the @onepasscheck battery, which
   scans the sampler backgrounds themselves. Timing is interleaved
   best-of-N like the overlay ablation: alternating passes put both
   paths under the same machine load, and the min over passes is each
   path's unloaded cost. *)

let onepass_rules_per_workload = 200
let onepass_bytes_per_workload = 128 * 1024
let onepass_planted = 24 (* witnesses per workload segment *)

(* every byte outside the 600 rules' non-literal first sets and
   extracted literals (verified by construction in the probe that
   chose it: 186 of 256 byte values qualify; these are the printable
   ones) *)
let onepass_cold_bytes = "!\"#$%&'()*+,;<>?@[]^`{|}~\\"

let onepass_ablation () : (string * float) list =
  let workloads =
    [ ("powren",
       Alveare_workloads.Powren.patterns (Rng.create 11)
         onepass_rules_per_workload,
       Streams.lowercase_text);
      ("protomata",
       Alveare_workloads.Protomata.patterns (Rng.create 12)
         onepass_rules_per_workload,
       Streams.protein);
      ("snort",
       Alveare_workloads.Snort.patterns (Rng.create 13)
         onepass_rules_per_workload,
       Streams.network) ]
  in
  let specs =
    List.concat_map
      (fun (name, patterns, _) ->
         List.mapi (fun i p -> (Printf.sprintf "%s-%d" name i, p)) patterns)
      workloads
  in
  let rs = Ruleset.compile_exn specs in
  (* one cold stream segment per workload, each planted with witnesses
     of a subset of that workload's own rules, concatenated *)
  let cold rng = Rng.char_of rng onepass_cold_bytes in
  let input =
    String.concat ""
      (List.map
         (fun (_, patterns, _) ->
            let asts =
              List.filteri (fun i _ -> i < onepass_planted) patterns
              |> List.map (fun p ->
                     (Alveare_compiler.Compile.compile_exn p)
                       .Alveare_compiler.Compile.ast)
            in
            (Streams.generate ~rng:(Rng.create 26)
               ~size:onepass_bytes_per_workload ~background:cold
               ~plant:(Streams.plant_of_patterns ~asts) ())
              .Streams.data)
         workloads)
  in
  let run_onepass () = Ruleset.scan rs input in
  let run_per_rule () = Alveare_test_support.Per_rule.scan ~dfa:true rs input in
  let on = run_onepass () in
  let off = run_per_rule () in
  let tagged (r : Ruleset.report) =
    List.map
      (fun (h : Ruleset.hit) -> (h.Ruleset.hit_rule.Ruleset.id, h.Ruleset.span))
      r.Ruleset.hits
  in
  let identity (r : Ruleset.report) =
    ( tagged r, r.Ruleset.per_rule_cycles, r.Ruleset.total_wall_cycles,
      r.Ruleset.total_attempts, r.Ruleset.total_offsets_scanned,
      r.Ruleset.total_offsets_pruned, r.Ruleset.prefiltered_rules )
  in
  let hits_identical = identity on = identity off in
  let one_pass f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let on_best = ref infinity and off_best = ref infinity in
  for _ = 1 to 4 do
    let a = one_pass run_onepass in
    let b = one_pass run_per_rule in
    if a < !on_best then on_best := a;
    if b < !off_best then off_best := b
  done;
  let onepass_ns = !on_best in
  let per_rule_ns = !off_best in
  let speedup = per_rule_ns /. Float.max 1.0 onepass_ns in
  Fmt.pr
    "== One-pass fused ruleset ablation (%d rules, %d KiB stream) ==@."
    (Ruleset.size rs)
    (String.length input / 1024);
  Fmt.pr
    "  per-rule %.2f ms/scan, fused %.2f ms/scan (%.2fx), report %s (%d \
     hits)@.@."
    (per_rule_ns /. 1e6) (onepass_ns /. 1e6) speedup
    (if hits_identical then "bit-identical" else "DIVERGED")
    (List.length on.Ruleset.hits);
  [ ("ruleset/onepass-per-rule-ns", per_rule_ns);
    ("ruleset/onepass-onepass-ns", onepass_ns);
    ("ruleset/onepass-speedup", speedup);
    ("ruleset/onepass-hits-identical", if hits_identical then 1.0 else 0.0) ]

(* --- Serving-path benchmark ---------------------------------------------

   End-to-end cost of the daemon: an in-process server on a /tmp Unix
   socket, [serving_clients] client threads each issuing
   [serving_requests] ruleset scans of 16 KiB stream slices through the
   real wire protocol, reader threads and worker pool. Latencies are the
   client-observed round trips; every response is checked against the
   direct Ruleset.scan of the same slice, so the benchmark doubles as a
   correctness run (server/snort/results-identical gates it in
   compare.ml, alongside the 2x latency and half-throughput envelopes). *)

module Server = Alveare_server.Server
module Sclient = Alveare_server.Client
module P = Alveare_server.Protocol

let serving_clients = 4
let serving_requests = 12
let serving_slice = 16 * 1024

let serving_bench () : (string * float) list =
  let patterns =
    Alveare_workloads.Snort.patterns (Rng.create 22) ablation_rules
  in
  let rules = List.mapi (fun i p -> (Printf.sprintf "snort-%d" i, p)) patterns in
  let rs = Ruleset.compile_exn rules in
  let asts =
    List.map
      (fun (r : Ruleset.compiled_rule) ->
         r.Ruleset.compiled.Alveare_compiler.Compile.ast)
      (Array.to_list rs.Ruleset.rules)
  in
  let stream =
    Streams.generate ~rng:(Rng.create 24) ~size:(256 * 1024)
      ~background:Streams.network ~plant:(Streams.plant_of_patterns ~asts) ()
  in
  let slices =
    let span = String.length stream.Streams.data - serving_slice in
    List.init serving_requests (fun i ->
        String.sub stream.Streams.data
          (i * span / (max 1 (serving_requests - 1)))
          serving_slice)
  in
  (* ground truth per slice, straight through the library *)
  let expected =
    List.map
      (fun slice ->
         let report = Ruleset.scan rs slice in
         List.map
           (fun (h : Ruleset.hit) ->
              ( h.Ruleset.hit_rule.Ruleset.id,
                h.Ruleset.hit_rule.Ruleset.tag,
                h.Ruleset.span.Alveare_engine.Semantics.start,
                h.Ruleset.span.Alveare_engine.Semantics.stop ))
           report.Ruleset.hits)
      slices
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "alveare-bench-%d.sock" (Unix.getpid ()))
  in
  let server =
    Server.start
      { Server.default_config with
        Server.addr = Server.Unix_sock path;
        workers = 4;
        queue_capacity = 256 }
  in
  let latencies = Array.make (serving_clients * serving_requests) 0.0 in
  let identical = Atomic.make true in
  let total_hits = Atomic.make 0 in
  let client ci () =
    let c = Sclient.connect (Server.Unix_sock path) in
    Fun.protect ~finally:(fun () -> Sclient.close c) (fun () ->
        List.iteri
          (fun i (slice, want) ->
             let t0 = Unix.gettimeofday () in
             (match
                Sclient.ruleset_scan ~allow_risky:true c ~rules ~input:slice
              with
             | Ok (P.Ruleset_matches { hits; _ }) ->
               ignore (Atomic.fetch_and_add total_hits (List.length hits));
               if hits <> want then Atomic.set identical false
             | Ok _ | Error _ -> Atomic.set identical false);
             latencies.((ci * serving_requests) + i) <-
               Unix.gettimeofday () -. t0)
          (List.combine slices expected))
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init serving_clients (fun ci -> Thread.create (client ci) ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Server.stop server;
  let n = Array.length latencies in
  Array.sort compare latencies;
  let pct p = latencies.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let rps = float_of_int n /. Float.max 1e-9 wall in
  Fmt.pr
    "== Serving path (%d clients x %d ruleset scans of %d KiB, Unix socket) ==@."
    serving_clients serving_requests (serving_slice / 1024);
  Fmt.pr
    "  throughput %.1f req/s, p50 %.2f ms, p99 %.2f ms, hits %d, results %s@.@."
    rps (p50 *. 1e3) (p99 *. 1e3) (Atomic.get total_hits)
    (if Atomic.get identical then "identical" else "DIVERGED");
  [ ("server/snort/throughput-rps", rps);
    ("server/snort/p50-ns", p50 *. 1e9);
    ("server/snort/p99-ns", p99 *. 1e9);
    ("server/snort/requests", float_of_int n);
    ("server/snort/hits", float_of_int (Atomic.get total_hits));
    ("server/snort/results-identical",
     if Atomic.get identical then 1.0 else 0.0) ]

(* --- Ambiguity-analysis bench -------------------------------------------

   Per-rule latency of the precise ambiguity analysis over the three
   workload samplers (the same 600 rules the @ambigcheck sweep pins),
   plus the class counts, which the compare gate holds exactly equal to
   the baseline: an analysis change that reclassifies a serving rule
   must be deliberate, not drift. The geomean per-rule latency is gated
   absolutely (admission-control budget), not relative to baseline. *)

let analysis_bench () : (string * float) list =
  let samplers =
    [ ("powren",
       Alveare_workloads.Powren.patterns (Alveare_workloads.Rng.create 11) 200);
      ("protomata",
       Alveare_workloads.Protomata.patterns
         (Alveare_workloads.Rng.create 12) 200);
      ("snort",
       Alveare_workloads.Snort.patterns (Alveare_workloads.Rng.create 13) 200) ]
  in
  Fmt.pr "== Ambiguity analysis (per-rule latency, 3 x 200 workload rules) ==@.";
  let log_sum = ref 0.0 in
  let entries =
    List.concat_map
      (fun (name, pats) ->
         let linear = ref 0 and poly = ref 0 and expo = ref 0 in
         let t0 = Unix.gettimeofday () in
         List.iter
           (fun p ->
              match Alveare_analysis.Ambiguity.pattern p with
              | Error _ -> ()
              | Ok t ->
                (match t.Alveare_analysis.Ambiguity.verdict with
                 | Alveare_analysis.Ambiguity.Linear -> incr linear
                 | Alveare_analysis.Ambiguity.Polynomial _ -> incr poly
                 | Alveare_analysis.Ambiguity.Exponential -> incr expo))
           pats;
         let wall = Unix.gettimeofday () -. t0 in
         let ms_per_rule = wall *. 1e3 /. float_of_int (List.length pats) in
         log_sum := !log_sum +. log (Float.max 1e-9 ms_per_rule);
         Fmt.pr "  %-10s %.3f ms/rule (linear %d, polynomial %d, exponential %d)@."
           name ms_per_rule !linear !poly !expo;
         [ (Printf.sprintf "analysis/%s/ms-per-rule" name, ms_per_rule);
           (Printf.sprintf "analysis/%s/linear" name, float_of_int !linear);
           (Printf.sprintf "analysis/%s/polynomial" name, float_of_int !poly);
           (Printf.sprintf "analysis/%s/exponential" name, float_of_int !expo) ])
      samplers
  in
  let geomean = exp (!log_sum /. float_of_int (List.length samplers)) in
  Fmt.pr "  geomean    %.3f ms/rule@.@." geomean;
  entries @ [ ("analysis/geomean-ms", geomean) ]

(* --- Extended-dialect bench ---------------------------------------------

   The policy workload (skeleton-and-constraint conjunctions,
   complement deny rules, lookaround guards) through both execution
   backends over a witness-planted stream. Per rule the mid-end either
   rewrites the pattern to plain ISA (finite conjunctions) or routes it
   to the derivative engine; the backend split and the span agreement
   of every served rule against a fresh derivative oracle are
   deterministic and gated in compare.ml (ext/hits-identical, plus at
   least one rule on each backend so the corpus keeps exercising both).
   The timings are informational: the lowered path runs on the
   cycle-level simulator while the oracle is a host matcher, so the
   ratio is an apples-to-oranges wall-clock observation, not a gate. *)

module Deriv = Alveare_derivative.Engine
module Compile = Alveare_compiler.Compile

let ext_rules = 16
let ext_bytes = 64 * 1024
let ext_iters = 3

let ext_bench () : (string * float) list =
  let patterns = Alveare_workloads.Policy.patterns (Rng.create 31) ext_rules in
  let compiled = List.map (Compile.compile_exn ~extended:true) patterns in
  let asts = List.map (fun c -> c.Compile.ast) compiled in
  let stream =
    Streams.generate ~rng:(Rng.create 32) ~size:ext_bytes
      ~background:Alveare_workloads.Policy.background
      ~plant:(Streams.plant_of_patterns ~asts) ()
  in
  let data = stream.Streams.data in
  let served c =
    match c.Compile.backend with
    | Compile.Derivative eng -> Deriv.find_all eng data
    | Compile.Isa | Compile.Isa_lowered ->
      Core.find_all ~plan:c.Compile.plan ~prefilter:c.Compile.prefilter
        c.Compile.program data
  in
  let lowered, routed =
    List.partition
      (fun c ->
         match c.Compile.backend with
         | Compile.Derivative _ -> false
         | Compile.Isa | Compile.Isa_lowered -> true)
      compiled
  in
  (* correctness: every rule's served spans equal a fresh oracle's *)
  let oracles = List.map Deriv.of_ast asts in
  let hits = ref 0 and identical = ref true in
  List.iter2
    (fun c oracle ->
       let s = served c in
       hits := !hits + List.length s;
       if s <> Deriv.find_all oracle data then identical := false)
    compiled oracles;
  let time f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ext_iters do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ext_iters
  in
  let deriv_ns =
    time (fun () -> List.map (fun o -> Deriv.find_all o data) oracles)
  in
  let lowered_ns = time (fun () -> List.map served lowered) in
  let lowered_oracles = List.map (fun c -> Deriv.of_ast c.Compile.ast) lowered in
  let deriv_lowered_ns =
    time (fun () -> List.map (fun o -> Deriv.find_all o data) lowered_oracles)
  in
  let speedup = deriv_lowered_ns /. Float.max 1.0 lowered_ns in
  Fmt.pr "== Extended dialect (policy workload, %d rules, %d KiB stream) ==@."
    ext_rules (ext_bytes / 1024);
  Fmt.pr
    "  %d rules lowered to ISA, %d on the derivative engine; oracle sweep \
     %.1f us, lowered scan %.1f us (simulated; %.2fx vs host oracle on the \
     same subset), hits %s (%d)@.@."
    (List.length lowered) (List.length routed) (deriv_ns /. 1e3)
    (lowered_ns /. 1e3) speedup
    (if !identical then "identical" else "DIVERGED")
    !hits;
  [ ("ext/rules", float_of_int ext_rules);
    ("ext/lowered-rules", float_of_int (List.length lowered));
    ("ext/derivative-rules", float_of_int (List.length routed));
    ("ext/deriv-ns", deriv_ns);
    ("ext/lowered-ns", lowered_ns);
    ("ext/deriv-lowered-ns", deriv_lowered_ns);
    ("ext/speedup", speedup);
    ("ext/hits", float_of_int !hits);
    ("ext/hits-identical", if !identical then 1.0 else 0.0) ]

let () =
  let results = benchmark () in
  print_results results;
  let plan = plan_ablation () in
  let dfa = dfa_ablation () in
  let ablation = prefilter_ablation () in
  let opt = opt_ablation () in
  let onepass = onepass_ablation () in
  let serving = serving_bench () in
  let analysis = analysis_bench () in
  let ext = ext_bench () in
  write_json !json_path
    (timing_entries results @ plan @ dfa @ ablation @ opt @ onepass @ serving
     @ analysis @ ext);
  (* Regenerate every paper artefact at quick scale. *)
  let workers = !workers in
  let scale = E.quick_scale () in
  T.print (E.table2_table (E.table2 ()));
  let results = E.evaluate ~workers ~scale () in
  T.print (E.figure4_table results);
  T.print (E.figure5_table results);
  let scaling =
    List.map
      (fun kind -> E.scaling ~workers ~scale kind)
      Benchmark_suite.all_kinds
  in
  T.print (E.scaling_table scaling);
  T.print (E.area_table ());
  T.print (A.counters_table (A.counters ()));
  T.print (A.fabric_table (A.fabric ()));
  T.print (A.vector_width_table (A.vector_width ()));
  T.print (A.optimizer_table (A.optimizer_study ()));
  T.print (A.fusion_table (A.fusion_study ()));
  T.print (X.energy_breakdown_table (X.energy_breakdown ()));
  T.print (X.csa_table (X.csa_comparison ()));
  T.print (X.capacity_table (X.capacity ()))
