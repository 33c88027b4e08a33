(* The in-process workloads, dpi-cold and ext-policy. Each one sets up
   (cold compiles), warms up once, scans its chunks round robin for the
   timed window, then checks every output against the independent
   reference.

   Untraced, the window times the library calls alone. Traced, it
   alternates the library call with its stage replay ([Replay]), so the
   replay's stage sums can be held against the call they replay, in the
   same run. *)

module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Combined = Alveare_compiler.Combined
module Dfa = Alveare_arch.Dfa_overlay
module Program = Alveare_isa.Program

type ctx = {
  seed : int;
  seconds : float;
  size : Inputs.size;
}

let mb bytes = float_of_int bytes /. 1e6

let fresh_cache () = Compile.create_cache ~capacity:1024 ()

let compile ~extended specs =
  Ruleset.compile_exn ~cache:(fresh_cache ()) ~extended specs

(* The ISA programs of a ruleset's rules: what a later compile of the
   same rules must reproduce. *)
let programs (rules : Ruleset.compiled_rule array) =
  Array.map (fun (r : Ruleset.compiled_rule) -> r.Ruleset.compiled.Compile.program) rules

let same_programs a b =
  Array.length a = Array.length b && Array.for_all2 Program.equal a b

(* The end-to-end latency: the mean operation latency over the fastest
   pass of [pass] operations, at the reference speed (see [Measure]).
   The raw figures and percentiles go to stderr. *)
let report_latency ~what ~pass lat =
  let n = Array.length lat in
  let best = Measure.fastest_pass ~len:pass lat in
  Report.note "%d %s: p50 %.3f ms, p99 %.3f ms; fastest pass of %d: %.3f ms each"
    n what (Measure.median lat /. 1e6) (Measure.quantile lat 0.99 /. 1e6) pass
    (best /. 1e6);
  if not !Report.traced then
    Report.note "fastest probe %.1f us (reference %.1f us): %.3f ms at the reference speed"
      (Measure.probe_fastest () /. 1e3) (Measure.probe_reference_ns /. 1e3)
      (Measure.at_reference_speed best /. 1e6);
  Report.e2e "latency_best_ms" "ms" (Measure.at_reference_speed best /. 1e6)

let report_peak_rss pid =
  match Measure.vm_hwm_mb pid with
  | Some mb -> Report.e2e "peak_rss_mb" "MB" mb
  | None -> Report.problem "no /proc entry for process %s" pid

(* Set-up time: the fastest of [samples] set-ups, at the reference
   speed. Set-ups a few milliseconds long each read the host as it was
   at that moment, and the host's slow stretches last seconds, so the
   median of a run's set-ups is that of whichever stretch they met; the
   fastest is one that met none (README.md, Host noise). *)
let report_setup samples =
  let ns = Measure.quantile samples 0.0 in
  Report.note "set-up: fastest of %d %.2f ms, median %.2f ms (%.2f ms at the reference speed)"
    (Array.length samples) (ns /. 1e6) (Measure.median samples /. 1e6)
    (Measure.at_reference_speed ns /. 1e6);
  Report.e2e "setup_s" "s" (Measure.at_reference_speed ns /. 1e9)

(* The pause before each set-up, so that a run's set-ups are spread
   over a few seconds at each end of its window instead of a fraction of
   one. None in a smoke run, nor in a traced one, which reports no
   set-up time and holds each compile against its stage replay right
   after it. *)
let setup_pause ctx =
  if ctx.size.Inputs.div = 1 && not !Report.traced then 0.15 else 0.0

(* --- Compile stages (traced) ------------------------------------------- *)

(* Replays [Ruleset.compile] as operation [op]; returns the replay
   root's duration, and checks it reproduces the programs [expect]. *)
let replay_compile ~extended ~expect ~op specs =
  Span.set_op op;
  let before = Span.total_ns "compiler.ruleset_compile" in
  let rules, _ = Replay.ruleset_compile ~extended specs in
  if not (same_programs expect (programs rules)) then
    Report.problem "compile replay produced different programs";
  Span.total_ns "compiler.ruleset_compile" -. before

(* The replay's time over the library call's: its stage sums must land
   within 10% of the call they replay. *)
let check_replay ~what ~real ~replayed =
  let r = Report.ratio replayed real in
  Report.note "%s replay / library call = %.3f" what r;
  if Float.abs (r -. 1.0) > 0.10 then
    Report.note "WARNING: %s stage sum is %+.1f%% off the call it replays"
      what ((r -. 1.0) *. 100.0);
  r

(* Traced window: the library call (even turns) alternates with its
   stage replay (odd turns), both returning their duration. Reports the
   replay ratio as [layer] and as the tracing overhead; returns the
   library calls' durations and the number of turns. *)
let alternate ctx ~what ~layer ~call ~replay =
  let real = Measure.Samples.create () and replayed = Measure.Samples.create () in
  let n =
    Measure.until ~seconds:ctx.seconds (fun i ->
        if i mod 2 = 0 then Measure.Samples.add real (call i)
        else Measure.Samples.add replayed (replay i))
  in
  let real = Measure.Samples.to_array real in
  let replayed = Measure.Samples.to_array replayed in
  let r =
    check_replay ~what ~real:(Measure.median real)
      ~replayed:(Measure.median replayed)
  in
  Report.layer layer "ratio" r;
  Report.layer "trace_overhead_frac" "ratio" (r -. 1.0);
  (real, Array.length replayed, n)

let compile_layers ~rules ~replays =
  let per_rule name =
    Span.self_ns name /. 1e3 /. float_of_int (max 1 (rules * replays))
  in
  List.iter
    (fun stage -> Report.layer (stage ^ "_us") "us/rule" (per_rule stage))
    Replay.compile_stages;
  Report.layer "analysis.ambiguity_share" "ratio"
    (Report.ratio (Span.total_ns "analysis.ambiguity_probe")
       (Span.self_ns "analysis.lint"))

(* Set-up time is the fastest of cold compiles of the standing set, each
   with a fresh compile cache on a collected heap: [setup_before] before
   the timed window and [setup_after] after it, a pause before each.
   (Compiles spread through the window instead ran on the window's heap:
   slower, and they raised and scattered the peak memory.) *)
let setup_before = 11
let setup_after = 10
let setup_ns = Measure.Samples.create ()

let cold_compile ctx ~extended specs =
  Unix.sleepf (setup_pause ctx);
  Gc.full_major ();
  let rs, ns = Measure.time (fun () -> compile ~extended specs) in
  Measure.Samples.add setup_ns ns;
  (rs, ns)

(* The set-up before the window; the last compilation is the one the
   workload uses. Traced, each compile is followed by its stage replay,
   which gives the compile per-layer metrics. *)
let setup ctx ~extended specs =
  let layers = !Report.traced in
  let real = Array.make setup_before 0.0 in
  let replayed = Array.make setup_before 0.0 in
  let rs = ref None in
  for k = 0 to setup_before - 1 do
    let r, ns = cold_compile ctx ~extended specs in
    real.(k) <- ns;
    rs := Some r;
    if layers then begin
      (* on a collected heap too, as the compile it is held against *)
      Gc.full_major ();
      replayed.(k) <-
        replay_compile ~extended ~expect:(programs r.Ruleset.rules) ~op:k specs
    end
  done;
  if layers then begin
    Report.layer "trace.compile_replay_ratio" "ratio"
      (check_replay ~what:"compile" ~real:(Measure.median real)
         ~replayed:(Measure.median replayed));
    compile_layers ~rules:(List.length specs) ~replays:setup_before
  end;
  Option.get !rs

(* The set-up after the window, then the set-up time over all of it. *)
let finish_setup ctx ~extended specs =
  for _ = 1 to setup_after do
    ignore (cold_compile ctx ~extended specs)
  done;
  report_setup (Measure.Samples.to_array setup_ns)

(* --- Scan counts -------------------------------------------------------- *)

let code_words (rs : Ruleset.t) =
  Array.fold_left
    (fun acc (r : Ruleset.compiled_rule) ->
       match r.Ruleset.compiled.Compile.backend with
       | Compile.Derivative _ -> acc
       | Compile.Isa | Compile.Isa_lowered ->
         acc + Compile.code_size r.Ruleset.compiled)
    0 rs.Ruleset.rules

let total_bytes chunks = Array.fold_left (fun a c -> a + String.length c) 0 chunks

(* Warm-up scan of every chunk, then one steady pass whose counter
   deltas are exact: reported as counts always, and per MB as per-layer
   metrics. Returns the warm-up reports, one per chunk. *)
let scan_counts (rs : Ruleset.t) chunks =
  let d0 = Dfa.global_stats () in
  let warm = Array.map (Ruleset.scan rs) chunks in
  let d1 = Dfa.global_stats () and c1 = Combined.counters () in
  let w0 = Gc.minor_words () in
  let steady = Array.map (Ruleset.scan rs) chunks in
  let w1 = Gc.minor_words () in
  let d2 = Dfa.global_stats () and c2 = Combined.counters () in
  let sum f = Array.fold_left (fun a (r : Ruleset.report) -> a + f r) 0 steady in
  let classes = Array.make 4 0 in
  Array.iteri
    (fun i o ->
       let k =
         match rs.Ruleset.rules.(i).Ruleset.compiled.Compile.backend, o with
         | Compile.Derivative _, _ -> 3
         | _, Combined.Scanned _ -> 0
         | _, Combined.Candidates _ -> 1
         | _, Combined.Residual -> 2
       in
       classes.(k) <- classes.(k) + 1)
    (Combined.scan rs.Ruleset.fused chunks.(0));
  let f = float_of_int in
  let sweep g = f (g c2 - g c1) and dfa g = f (g d2 - g d1) in
  let exact =
    [ ("hits", f (sum (fun r -> List.length r.Ruleset.hits)));
      ("attempts", f (sum (fun r -> r.Ruleset.total_attempts)));
      ("offsets_scanned", f (sum (fun r -> r.Ruleset.total_offsets_scanned)));
      ("offsets_pruned", f (sum (fun r -> r.Ruleset.total_offsets_pruned)));
      ("dsa_cycles", f (sum (fun r -> r.Ruleset.total_wall_cycles)));
      ("dispatch_candidates", sweep (fun c -> c.Combined.dispatch_candidates));
      ("ac_candidates", sweep (fun c -> c.Combined.ac_candidates));
      ("product_threads", sweep (fun c -> c.Combined.product_threads));
      ("dfa_hits", dfa (fun s -> s.Dfa.hits));
      ("dfa_misses", dfa (fun s -> s.Dfa.misses));
      ("dfa_bails", dfa (fun s -> s.Dfa.bails));
      ("dfa_flushes", dfa (fun s -> s.Dfa.flushes));
      ("dfa_states_built_warmup", f (d1.Dfa.states_built - d0.Dfa.states_built));
      ("rules_sweep", f classes.(0));
      ("rules_ac", f classes.(1));
      ("rules_residual", f classes.(2));
      ("rules_derivative", f classes.(3));
      ("minor_words", w1 -. w0);
      ("isa_words", f (code_words rs)) ]
  in
  List.iter (fun (n, v) -> Report.count n v) exact;
  let get n = List.assoc n exact in
  let data_mb = mb (total_bytes chunks) in
  let per_mb n = get n /. data_mb in
  Report.layer "arch.attempts_per_mb" "count/MB" (per_mb "attempts");
  Report.layer "arch.prune_frac" "ratio"
    (Report.ratio (get "offsets_pruned") (get "offsets_scanned"));
  Report.layer "arch.hits_per_kattempt" "count"
    (Report.ratio (1000.0 *. get "hits") (get "attempts"));
  Report.layer "dsa_ms_per_mb" "ms/MB"
    (Array.fold_left (fun a r -> a +. r.Ruleset.seconds) 0.0 steady *. 1e3 /. data_mb);
  Report.layer "compiler.dispatch_candidates_per_mb" "count/MB"
    (per_mb "dispatch_candidates");
  Report.layer "compiler.ac_candidates_per_mb" "count/MB" (per_mb "ac_candidates");
  Report.layer "compiler.product_threads_per_mb" "count/MB"
    (per_mb "product_threads");
  Report.layer "arch.dfa_hit_frac" "ratio"
    (Report.ratio (get "dfa_hits") (get "dfa_hits" +. get "dfa_misses"));
  Report.layer "arch.dfa_bails_per_mb" "count/MB" (per_mb "dfa_bails");
  Report.layer "arch.dfa_flushes_per_mb" "count/MB" (per_mb "dfa_flushes");
  Report.layer "arch.dfa_states_built" "count" (get "dfa_states_built_warmup");
  List.iter
    (fun k -> Report.layer ("compiler." ^ k) "count" (get k))
    [ "rules_sweep"; "rules_ac"; "rules_residual"; "rules_derivative" ];
  Report.layer "gc.minor_mwords_per_mb" "Mword/MB" (per_mb "minor_words" /. 1e6);
  Report.layer "isa_words" "count" (get "isa_words");
  warm

(* --- The workloads -------------------------------------------------------- *)

(* Turn [i] of a traced window scans chunk [i / 2]: each replay redoes
   the chunk its library call just scanned. *)
let traced_scans ctx (rs : Ruleset.t) chunks ~check ~expect =
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let m0 = majors () in
  let diverged = ref false in
  let bytes = ref 0 in
  let chunk i = (i / 2) mod Array.length chunks in
  let real, _, n =
    alternate ctx ~what:"scan" ~layer:"trace.scan_replay_ratio"
      ~call:(fun i ->
          let k = chunk i in
          let r, ns = Measure.time (fun () -> Ruleset.scan rs chunks.(k)) in
          check k r;
          ns)
      ~replay:(fun i ->
          let k = chunk i in
          Span.set_op i;
          let before = Span.total_ns "compiler.ruleset_scan" in
          let hits = Replay.ruleset_scan rs chunks.(k) in
          if hits <> expect.(k) && not !diverged then begin
            diverged := true;
            Report.problem "scan replay disagrees with Ruleset.scan"
          end;
          bytes := !bytes + String.length chunks.(k);
          Span.total_ns "compiler.ruleset_scan" -. before)
  in
  let bytes = float_of_int !bytes in
  List.iter
    (fun stage ->
       Report.layer (stage ^ "_ns_per_byte") "ns/B"
         (Report.ratio (Span.self_ns stage) bytes))
    Replay.scan_stages;
  Report.layer "gc.major_per_scan" "count"
    (float_of_int (majors () - m0) /. float_of_int n);
  real

(* The standing ruleset scans the chunks back to back, round robin;
   every output must equal the reference. *)
let scan_workload ctx ~extended specs chunks =
  let rs = setup ctx ~extended specs in
  Gc.full_major ();
  let warm = scan_counts rs chunks in
  let n_chunks = Array.length chunks in
  let scans = Array.make n_chunks 0 and mismatched = ref 0 in
  let check k (r : Ruleset.report) =
    scans.(k) <- scans.(k) + 1;
    if r.Ruleset.hits <> warm.(k).Ruleset.hits then incr mismatched
  in
  let g0 = Gc.quick_stat () in
  let lat =
    if !Report.traced then
      traced_scans ctx rs chunks ~check ~expect:(Array.map Inputs.of_report warm)
    else
      Measure.window ~seconds:ctx.seconds
        ~op:(fun i -> Ruleset.scan rs chunks.(i mod n_chunks))
        ~after:(fun i r -> check (i mod n_chunks) r)
  in
  let g1 = Gc.quick_stat () in
  Report.note "gc in the window: %d minor, %d major collections, %.1f Mwords promoted"
    (g1.Gc.minor_collections - g0.Gc.minor_collections)
    (g1.Gc.major_collections - g0.Gc.major_collections)
    ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
  (* a pass scans every chunk once *)
  report_latency ~what:"scans" ~pass:n_chunks lat;
  report_peak_rss "self";
  finish_setup ctx ~extended specs;
  let n = Array.length lat in
  let failed = ref !mismatched and hits = ref 0 in
  Array.iteri
    (fun k chunk ->
       let expected = Inputs.reference ~extended specs chunk in
       hits := !hits + List.length expected;
       if Inputs.of_report warm.(k) <> expected then begin
         Report.problem
           "ruleset scan of chunk %d disagrees with the reference (%d hits, %d expected)"
           k (List.length warm.(k).Ruleset.hits) (List.length expected);
         failed := !failed + scans.(k)
       end)
    chunks;
  Report.note "%d hits, all checked against the reference" !hits;
  Report.ops ~attempted:n ~failed:(min n !failed)

let describe what specs chunks =
  Report.note "%d rules over %d KiB of %s, in %d chunks" (List.length specs)
    (total_bytes chunks / 1024) what (Array.length chunks)

let dpi_cold ctx =
  let d = Inputs.dpi ~seed:ctx.seed ~size:ctx.size in
  describe (Printf.sprintf "cold traffic (cold alphabet %S)" d.Inputs.cold)
    d.Inputs.specs d.Inputs.chunks;
  scan_workload ctx ~extended:false d.Inputs.specs d.Inputs.chunks

let ext_policy ctx =
  let specs, chunks = Inputs.policy ~seed:ctx.seed ~size:ctx.size in
  describe "policy traffic (extended rules)" specs chunks;
  scan_workload ctx ~extended:true specs chunks
