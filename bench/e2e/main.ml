(* End-to-end benchmark: three workloads from rule compilation to daemon
   replies, each run in its own child process.

     main.exe --workload dpi-cold --seed 1 --seconds 30 --trace 0
     main.exe --seed 1                 # every workload, one after another
     main.exe --repeat 2               # the suite twice, order alternated
     main.exe --smoke                  # 1/8-size inputs, ~1 s each, traced too

   The last line of stdout is one JSON object: correct, attempted, failed
   and the metrics (end-to-end untraced, per-layer with --trace 1). The
   exit code is 0 only when every output matched its reference. *)

let workloads = [ "dpi-cold"; "ext-policy"; "serve-mixed" ]

(* name, unit, bound: the share by which a metric may worsen (as in
   BENCHMARK.json) *)
let e2e_metrics =
  [ ("setup_s", "s", 0.25);
    ("latency_best_ms", "ms", 0.20);
    ("peak_rss_mb", "MB", 0.20) ]

(* Every per-layer metric; a workload that does not exercise a layer
   reports it as 0. *)
let layer_metrics =
  List.map (fun s -> (s ^ "_us", "us/rule")) Replay.compile_stages
  @ [ ("analysis.ambiguity_share", "ratio") ]
  @ List.map (fun s -> (s ^ "_ns_per_byte", "ns/B")) Replay.scan_stages
  @ [ ("arch.attempts_per_mb", "count/MB");
      ("arch.prune_frac", "ratio");
      ("arch.hits_per_kattempt", "count");
      ("dsa_ms_per_mb", "ms/MB");
      ("compiler.dispatch_candidates_per_mb", "count/MB");
      ("compiler.ac_candidates_per_mb", "count/MB");
      ("compiler.product_threads_per_mb", "count/MB");
      ("arch.dfa_hit_frac", "ratio");
      ("arch.dfa_bails_per_mb", "count/MB");
      ("arch.dfa_flushes_per_mb", "count/MB");
      ("arch.dfa_states_built", "count");
      ("compiler.rules_sweep", "count");
      ("compiler.rules_ac", "count");
      ("compiler.rules_residual", "count");
      ("compiler.rules_derivative", "count");
      ("gc.minor_mwords_per_mb", "Mword/MB");
      ("gc.major_per_scan", "count");
      ("isa_words", "count");
      ("server.codec_us", "us");
      ("server.service_us", "us");
      ("compiler.ruleset_compile_us", "us");
      ("compiler.ruleset_scan_us", "us");
      ("compiler.fresh_compile_us", "us");
      ("server.daemon_scan_us", "us");
      ("server.wait_io_us", "us");
      ("server.shed_frac", "ratio");
      ("exec.cache_hit_rate", "ratio");
      ("trace.compile_replay_ratio", "ratio");
      ("trace.scan_replay_ratio", "ratio");
      ("trace.service_replay_ratio", "ratio");
      ("trace_overhead_frac", "ratio") ]

(* --- Command line ------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 30.0
let trace = ref 0
let repeat = ref 1
let smoke = ref false
let child = ref false
let daemon = ref "_build/default/bin/alveared.exe"

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--repeat N] [--smoke] [--daemon PATH]"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  one of " ^ String.concat ", " workloads ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed window per workload (default 30)");
      ("--trace", Arg.Set_int trace,
       "0|1  1 = traced run: per-layer metrics and a span file under .bench_e2e/");
      ("--repeat", Arg.Set_int repeat,
       "N  run the suite N times, alternating workload order, and compare");
      ("--smoke", Arg.Set smoke,
       " 1/8-size inputs for about a second per workload, untraced and traced");
      ("--daemon", Arg.Set_string daemon, "PATH  the alveared executable");
      ("--child", Arg.Set child, " (internal) run one workload in this process") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload <> "" && not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end

(* --- Child: one workload ------------------------------------------------ *)

let run_child () =
  (* own process group, so a parent that times out can stop the child
     and the daemon it started together *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  Printexc.record_backtrace true;
  Report.traced := !trace = 1;
  if !Report.traced then Span.enable ();
  let ctx =
    { Work.seed = !seed; seconds = !seconds;
      size = (if !smoke then Inputs.smoke else Inputs.full) }
  in
  let status =
    match
      (match !workload with
       | "dpi-cold" -> Work.dpi_cold ctx
       | "ext-policy" -> Work.ext_policy ctx
       | _ -> Serve.run ctx ~daemon:!daemon)
    with
    | () -> 0
    | exception e ->
      Report.problem "%s failed: %s at %s" !workload (Printexc.to_string e)
        (String.concat " <- "
           (String.split_on_char '\n' (String.trim (Printexc.get_backtrace ()))));
      2
  in
  if !Report.traced then begin
    let path = Printf.sprintf "%s/spans-%s-%d.tsv" (Report.run_dir ()) !workload !seed in
    Span.write path;
    Report.note "spans written to %s; self time by span:" path;
    List.iter
      (fun (name, n, total, self) ->
         Report.note "  %-32s %8d calls %10.2f ms total %10.2f ms self" name n
           (total /. 1e6) (self /. 1e6))
      (Span.summary ())
  end;
  exit status

(* --- Parent: spawn, collect, check -------------------------------------- *)

type result = {
  name : string;
  metrics : (string * float * string) list;
  counts : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let correct r = r.problems = [] && r.failed = 0 && r.attempted > 0

let current_child = ref None

let () =
  let stop_child _ =
    Option.iter
      (fun pid -> try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ())
      !current_child;
    exit 130
  in
  if not !child then begin
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_child);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_child)
  end

(* The declared metric set, checked against what a child reported. *)
let check_metrics ~traced metrics =
  let declared =
    if traced then layer_metrics
    else List.map (fun (n, u, _) -> (n, u)) e2e_metrics
  in
  List.filter_map
    (fun (n, _, u) ->
       match List.assoc_opt n declared with
       | Some u' when u' = u -> None
       | Some _ -> Some (Printf.sprintf "metric %s reported in %s" n u)
       | None -> Some (Printf.sprintf "undeclared metric %s" n))
    metrics
  @ List.filter_map
      (fun (n, _) ->
         match List.find_opt (fun (m, _, _) -> m = n) metrics with
         | Some (_, v, _) when traced || v > 0.0 -> None
         | Some _ -> Some (Printf.sprintf "metric %s is not positive" n)
         | None when traced -> None
         | None -> Some (Printf.sprintf "metric %s missing" n))
      declared

(* The CPU the workload children run on, when [taskset] is on the PATH:
   the last one this process may use. A child's daemon inherits it, so
   client and daemon hand each request over on one CPU instead of waking
   each other across two (on the reference host that cut the fastest
   request latency by a fifth and its spread from run to run by more
   than half; README.md, Why one CPU). *)
let pinned_cpu =
  let on_path name =
    List.exists
      (fun dir -> Sys.file_exists (Filename.concat dir name))
      (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))
  in
  let allowed () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "Cpus_allowed_list: %s" Fun.id)
  in
  match on_path "taskset", allowed () with
  | true, Some list ->
    let cpus = String.split_on_char ',' list in
    let last = List.nth cpus (List.length cpus - 1) in
    (match String.split_on_char '-' last with
     | [ cpu ] | [ _; cpu ] when int_of_string_opt cpu <> None -> Some cpu
     | _ -> None)
  | _ | (exception Sys_error _) -> None

(* Runs one workload in a child and reads its report. The child's
   stderr is relayed as it arrives, or held back and shown only on
   failure when [quiet]. A child that outlives its deadline is killed
   together with its process group. *)
let spawn_child ~quiet ~trace:t name =
  let args =
    [ Sys.executable_name; "--child"; "--workload"; name; "--seed";
      string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds; "--trace";
      string_of_int t; "--daemon"; !daemon ]
    @ if !smoke then [ "--smoke" ] else []
  in
  let prog, args =
    match pinned_cpu with
    | Some cpu -> ("taskset", [ "taskset"; "-c"; cpu ] @ args)
    | None -> (Sys.executable_name, args)
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process prog (Array.of_list args) Unix.stdin out_w err_w in
  current_child := Some pid;
  Unix.close out_w;
  Unix.close err_w;
  let out = Buffer.create 4096 and err = Buffer.create 4096 in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. !seconds +. 120.0 in
  let timed_out = ref false in
  let rec pump fds =
    if fds <> [] then begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then begin
        timed_out := true;
        try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()
      end
      else begin
        let ready, _, _ =
          try Unix.select fds [] [] left
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        pump
          (List.filter
             (fun fd ->
                (not (List.mem fd ready))
                ||
                match Unix.read fd buf 0 (Bytes.length buf) with
                | 0 -> false
                | n ->
                  if fd = out_r then Buffer.add_subbytes out buf 0 n
                  else if quiet then Buffer.add_subbytes err buf 0 n
                  else prerr_string (Bytes.sub_string buf 0 n);
                  true)
             fds)
      end
    end
  in
  pump [ out_r; err_r ];
  Unix.close out_r;
  Unix.close err_r;
  let _, status = Unix.waitpid [] pid in
  current_child := None;
  let lines =
    String.split_on_char '\n' (Buffer.contents out) |> List.filter_map Report.parse
  in
  let metrics =
    List.filter_map (function Report.Metric (n, v, u) -> Some (n, v, u) | _ -> None)
      lines
  in
  let attempted, failed =
    List.fold_left
      (fun acc l -> match l with Report.Ops (a, f) -> (a, f) | _ -> acc)
      (0, 0) lines
  in
  let problems =
    List.filter_map (function Report.Problem p -> Some p | _ -> None) lines
    @ (if !timed_out then [ "timed out" ] else [])
    @ (match status with
        | Unix.WEXITED 0 -> []
        | Unix.WEXITED c -> [ Printf.sprintf "child exited with %d" c ]
        | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          [ Printf.sprintf "child killed by signal %d" s ])
    @ check_metrics ~traced:(t = 1) metrics
  in
  let metrics =
    if t = 0 then metrics
    else
      List.map
        (fun (n, u) ->
           match List.find_opt (fun (m, _, _) -> m = n) metrics with
           | Some m -> m
           | None -> (n, 0.0, u))
        layer_metrics
  in
  let counts =
    List.filter_map (function Report.Count (n, v) -> Some (n, v) | _ -> None) lines
  in
  let r = { name; metrics; counts; attempted; failed; problems } in
  if quiet && not (correct r) then prerr_string (Buffer.contents err);
  r

let print_result r =
  Printf.printf "== %s (seed %d): %s, %d operations, %d failed\n" r.name !seed
    (if correct r then "correct" else "INCORRECT") r.attempted r.failed;
  List.iter (fun p -> Printf.printf "   problem: %s\n" p) r.problems;
  List.iter (fun (n, v, u) -> Printf.printf "   %-40s %14.6g %s\n" n v u) r.metrics;
  flush stdout

let print_json ~prefix results =
  let metrics =
    List.concat_map
      (fun r ->
         List.map
           (fun (n, v, u) ->
              Printf.sprintf "\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
                (prefix r) n v u)
           r.metrics)
      results
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (List.for_all correct results)
    (List.fold_left (fun a r -> a + r.attempted) 0 results)
    (List.fold_left (fun a r -> a + r.failed) 0 results)
    (String.concat ", " metrics)

(* --repeat: the suite [n] times, every other pass in reverse order;
   timed metrics are set against their bounds, counts must repeat
   exactly. *)
let repeat_suite n =
  let names = if !workload = "" then workloads else [ !workload ] in
  let passes =
    List.init n (fun k ->
        let order = if k mod 2 = 0 then names else List.rev names in
        List.map (fun w -> spawn_child ~quiet:false ~trace:!trace w) order)
  in
  let find pass w = List.find (fun r -> r.name = w) pass in
  let ok = ref (List.for_all (List.for_all correct) passes) in
  List.iter
    (fun w ->
       let a = find (List.hd passes) w in
       Printf.printf "== %s: %d operations\n" w a.attempted;
       List.iter
         (fun pass ->
            let b = find pass w in
            if b != a then begin
              List.iter
                (fun (n, va, u) ->
                   match List.find_opt (fun (m, _, _) -> m = n) b.metrics with
                   | None -> ()
                   | Some (_, vb, _) ->
                     let bound =
                       match List.find_opt (fun (m, _, _) -> m = n) e2e_metrics with
                       | Some (_, _, bd) -> Printf.sprintf "bound %.0f%%" (bd *. 100.0)
                       | None -> "no bound"
                     in
                     Printf.printf "   %-40s %12.6g -> %12.6g %-8s %+7.2f%% (%s)\n" n
                       va vb u
                       (Report.ratio (vb -. va) va *. 100.0)
                       bound)
                a.metrics;
              List.iter
                (fun (n, va) ->
                   match List.assoc_opt n b.counts with
                   | Some vb when vb = va -> ()
                   | vb ->
                     ok := false;
                     Printf.printf "   COUNT DIFFERS %s: %.17g -> %s\n" n va
                       (match vb with
                        | Some v -> Printf.sprintf "%.17g" v
                        | None -> "missing"))
                a.counts;
              Printf.printf "   %d counts compared\n" (List.length a.counts)
            end)
         passes)
    names;
  List.iter
    (fun pass -> List.iter (fun r -> if not (correct r) then print_result r) pass)
    passes;
  Printf.printf "repeat: %s\n%!"
    (if !ok then "counts identical, every output correct" else "FAILED");
  exit (if !ok then 0 else 1)

let smoke_suite () =
  let results =
    List.concat_map
      (fun w -> List.map (fun t -> (t, spawn_child ~quiet:true ~trace:t w)) [ 0; 1 ])
      workloads
  in
  List.iter
    (fun (t, r) ->
       Printf.printf "smoke %-14s trace %d: %s (%d operations)\n" r.name t
         (if correct r then "ok" else "FAILED") r.attempted;
       if not (correct r) then print_result r)
    results;
  exit (if List.for_all (fun (_, r) -> correct r) results then 0 else 1)

let () =
  if !child then run_child ()
  else if !smoke then begin
    seconds := Float.min !seconds 1.0;
    smoke_suite ()
  end
  else if !repeat > 1 then repeat_suite !repeat
  else begin
    let names = if !workload = "" then workloads else [ !workload ] in
    let results = List.map (spawn_child ~quiet:false ~trace:!trace) names in
    List.iter print_result results;
    print_json ~prefix:(fun r -> if !workload = "" then r.name ^ "." else "") results;
    exit (if List.for_all correct results then 0 else 1)
  end
