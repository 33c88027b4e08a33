(* serve-mixed: the daemon end to end. [alveared] runs at its defaults
   as a separate process on a Unix socket; one connection sends the next
   request only after the previous reply (Client.call), a closed loop.
   Of every 8 requests, 7 scan a slice of network traffic against a
   standing 16-rule Snort set (Ruleset_scan, a compile-cache hit) and 1
   scans with a never-seen Snort pattern (Scan, a compile-cache miss).

   One connection, not one per core: the daemon's worker threads share
   one OCaml domain, so a second connection's request only waits for
   the first one's scan, and the latency then depends on how the runtime
   and the host hand the domain between threads. *)

module P = Alveare_server.Protocol
module Client = Alveare_server.Client
module Service = Alveare_server.Service
module Metrics = Alveare_server.Metrics
module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Core = Alveare_arch.Core

(* request i; fresh patterns are drawn up front, enough for any window *)
let max_requests = 131072

(* [alveared]'s default --cache: the compiled-pattern LRU holds this many
   entries. The warm-up fills it, so each fresh pattern in the window
   evicts one and the daemon's memory is at its steady state however
   many requests the window fits. *)
let daemon_cache_entries = 1024

type kind = Rules of int | Fresh of int * int  (* slice | pattern, slice *)

let request (sv : Inputs.serve) i =
  let n = Array.length sv.Inputs.slices in
  if i mod 8 = 7 then
    let j = i / 8 in
    ( P.Scan
        { id = i + 1; pattern = sv.Inputs.fresh.(j); input = sv.Inputs.slices.(j mod n);
          deadline_ms = 0; allow_risky = false },
      Fresh (j, j mod n) )
  else
    ( P.Ruleset_scan
        { id = i + 1; rules = sv.Inputs.rules; input = sv.Inputs.slices.(i mod n);
          deadline_ms = 0; allow_risky = false },
      Rules (i mod n) )

(* --- The daemon process -------------------------------------------------- *)

(* Daemons started and not yet waited for. *)
let live = ref []

(* Asks a daemon to exit and waits until it has: up to a quarter of a
   second, asleep in its accept loop. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun p -> p <> pid) !live

let stop_all () = List.iter stop !live

let () = at_exit stop_all

let spawn ~daemon ~sock =
  (* the daemon's stdout goes to stderr: this process's stdout is the
     report channel to its parent *)
  let pid =
    Unix.create_process daemon [| daemon; "--socket"; sock; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  pid

let rec connect ~pid ~sock deadline =
  match Client.connect (Client.Unix_sock sock) with
  | c -> c
  | exception Unix.Unix_error _ ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ ->
       live := List.filter (fun p -> p <> pid) !live;
       failwith "the daemon exited before accepting connections");
    if Int64.compare (Measure.now ()) deadline > 0 then
      failwith "the daemon did not accept connections within 30 s";
    (* short, so that the poll's step adds little to a set-up of a few
       milliseconds *)
    Unix.sleepf 0.0002;
    connect ~pid ~sock deadline

let wire_hits hits = List.map (fun (id, _, start, stop) -> (id, start, stop)) hits

let stats_of c =
  match Client.stats c with
  | Ok (P.Stats_reply { entries; _ }) -> entries
  | Ok _ | Error _ -> failwith "the daemon did not answer a stats request"

(* --- Server stages (traced) ---------------------------------------------- *)

let frame decode f =
  let d = P.decoder () in
  P.feed d f;
  match decode d with
  | P.Frame x -> x
  | P.Await | P.Corrupt _ -> failwith "a frame did not survive its codec"

(* In-process replay of a request, with spans: the codec both ways
   around [Service.handle], then the handler's steps on their own so
   their sum can be held against [Service.handle]. A traced window
   replays each request right after the daemon answered it, so that the
   replay and the end-to-end latency it is subtracted from meet the same
   host. [first] warms the replay as the daemon was before its window. *)
let replayer first =
  let sp = Span.run in
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.cache = Work.fresh_cache () }
      (Metrics.create ())
  in
  let steps = Work.fresh_cache () in
  let rules =
    match first with
    | P.Ruleset_scan { rules; _ } -> rules
    | _ -> assert false
  in
  ignore (Service.handle svc first);
  ignore (Ruleset.compile_exn ~cache:steps rules);
  fun i req ->
    Span.set_op i;
    sp "server.request" (fun () ->
        let req =
          sp "server.codec" (fun () -> frame P.next_request (P.encode_request req))
        in
        let resp = sp "server.service" (fun () -> Service.handle svc req) in
        ignore
          (sp "server.codec" (fun () ->
               frame P.next_response (P.encode_response resp))));
    sp "server.handler" (fun () ->
        match req with
        | P.Ruleset_scan { rules; input; _ } ->
          let rs =
            sp "compiler.ruleset_compile" (fun () ->
                Ruleset.compile_exn ~cache:steps ~workers:1 rules)
          in
          ignore (Ruleset.analysis_report rs);
          ignore
            (sp "compiler.ruleset_scan" (fun () ->
                 Ruleset.scan ~cores:1 ~workers:1 rs input))
        | P.Scan { pattern; input; _ } ->
          let c =
            sp "compiler.fresh_compile" (fun () ->
                Compile.cached_exn ~cache:steps pattern)
          in
          ignore
            (sp "arch.single_scan" (fun () ->
                 Core.find_all ~stats:(Core.fresh_stats ())
                   ~prefilter:c.Compile.prefilter ~plan:c.Compile.plan
                   ?dfa:c.Compile.dfa c.Compile.program input))
        | P.Health _ | P.Compile _ | P.Stats _ -> ())

(* The server layers of a traced window of [requests] requests, each
   replayed; [mean_us] is their mean end-to-end latency and [delta] a
   daemon statistic's change over the window. *)
let report_server_layers ~requests ~mean_us ~delta =
  let per_request name = Span.total_ns name /. 1e3 /. float_of_int (max 1 requests) in
  let per_call name =
    Report.ratio (Span.total_ns name /. 1e3) (float_of_int (Span.count name))
  in
  let codec = per_request "server.codec" and service = per_request "server.service" in
  Report.layer "server.codec_us" "us" codec;
  Report.layer "server.service_us" "us" service;
  Report.layer "compiler.ruleset_compile_us" "us" (per_call "compiler.ruleset_compile");
  Report.layer "compiler.ruleset_scan_us" "us" (per_call "compiler.ruleset_scan");
  Report.layer "compiler.fresh_compile_us" "us" (per_call "compiler.fresh_compile");
  Report.layer "server.daemon_scan_us" "us"
    (Report.ratio (delta "latency/ruleset-scan/sum" *. 1e6)
       (delta "latency/ruleset-scan/count"));
  Report.layer "server.wait_io_us" "us" (mean_us -. service -. codec);
  Report.layer "server.shed_frac" "ratio"
    (Report.ratio (delta "admission/shed")
       (delta "admission/shed" +. delta "admission/admitted"));
  Report.layer "exec.cache_hit_rate" "ratio"
    (Report.ratio (delta "cache/hits") (delta "cache/hits" +. delta "cache/misses"));
  let ratio =
    Work.check_replay ~what:"service" ~real:(Span.total_ns "server.service")
      ~replayed:(Span.total_ns "server.handler")
  in
  Report.layer "trace.service_replay_ratio" "ratio" ratio;
  Report.layer "trace_overhead_frac" "ratio" (ratio -. 1.0)

(* --- The workload -------------------------------------------------------- *)

type sample = { i : int; ns : float; reply : (P.response, string) result }

(* Daemon spawns timed to the first correct reply, for set-up, before
   and after the window, a pause before each; the fastest of the 11 is
   set-up time ([Work.report_setup]). *)
let setup_before = 5
let setup_after = 6

let run (ctx : Work.ctx) ~daemon =
  let sv =
    Inputs.serve ~seed:ctx.Work.seed ~size:ctx.Work.size ~fresh:(max_requests / 8)
      ~prefill:daemon_cache_entries
  in
  let expected =
    Array.map (Inputs.reference ~extended:false sv.Inputs.rules) sv.Inputs.slices
  in
  Report.note "%d rules, %d slices of %d KiB, one connection, closed loop"
    (List.length sv.Inputs.rules) (Array.length sv.Inputs.slices)
    (String.length sv.Inputs.slices.(0) / 1024);
  (* set-up: spawn to the first correct ruleset reply *)
  let setup k =
    let sock =
      Printf.sprintf "%s/alveared-%d-%d.sock" (Report.run_dir ()) (Unix.getpid ()) k
    in
    Unix.sleepf (Work.setup_pause ctx);
    let t0 = Measure.now () in
    let pid = spawn ~daemon ~sock in
    let c = connect ~pid ~sock (Int64.add t0 30_000_000_000L) in
    (match Client.call c (fst (request sv 0)) with
     | Ok (P.Ruleset_matches { hits; _ }) when wire_hits hits = expected.(0) -> ()
     | Ok r -> failwith (Fmt.str "unexpected first reply: %a" P.pp_response r)
     | Error m -> failwith ("first request failed: " ^ m));
    (pid, c, Measure.ns_since t0)
  in
  let set_up_and_stop k =
    let pid, c, ns = setup k in
    Client.close c;
    stop pid;
    ns
  in
  let first = List.init (setup_before - 1) set_up_and_stop in
  let pid, c, last = setup (setup_before - 1) in
  (* warm-up: fill the compile cache, then the first seven requests, all
     through the ruleset path *)
  Array.iteri
    (fun j pattern ->
       match
         Client.call c
           (P.Scan
              { id = max_requests + 1 + j; pattern; input = ""; deadline_ms = 0;
                allow_risky = false })
       with
       | Ok _ -> ()
       | Error m -> failwith ("cache warm-up request failed: " ^ m))
    sv.Inputs.prefill;
  for i = 0 to 6 do
    ignore (Client.call c (fst (request sv i)))
  done;
  let replay = if !Report.traced then Some (replayer (fst (request sv 0))) else None in
  let before = stats_of c in
  let t0 = Measure.now () in
  let deadline = Int64.add t0 (Int64.of_float (ctx.Work.seconds *. 1e9)) in
  let rec loop i acc =
    if i >= max_requests then acc
    else begin
      let req, _ = request sv i in
      if i mod 16 = 0 then Measure.probe ();
      let t1 = Measure.now () in
      let reply = Client.call c req in
      let acc = { i; ns = Measure.ns_since t1; reply } :: acc in
      Option.iter (fun replay -> replay i req) replay;
      if Result.is_ok reply && Int64.compare (Measure.now ()) deadline < 0
      then loop (i + 1) acc
      else acc
    end
  in
  let samples = Array.of_list (List.rev (loop 0 [])) in
  let wall = Measure.ns_since t0 /. 1e9 in
  let after = stats_of c in
  let peak = Measure.vm_hwm_mb (string_of_int pid) in
  Client.close c;
  stop pid;
  let later = List.init setup_after (fun k -> set_up_and_stop (setup_before + k)) in
  Work.report_setup (Array.of_list (first @ (last :: later)));
  (* every reply against the per-slice oracle *)
  let failed = ref 0 and errors = Hashtbl.create 4 in
  Array.iter
    (fun s ->
       let ok =
         match snd (request sv s.i), s.reply with
         | Rules k, Ok (P.Ruleset_matches { hits; _ }) -> wire_hits hits = expected.(k)
         | Fresh (j, k), Ok (P.Matches { spans; _ }) ->
           List.map (fun (a, b) -> (0, a, b)) spans
           = Inputs.spans_of 0 (Inputs.isa_hits sv.Inputs.fresh.(j) sv.Inputs.slices.(k))
         | _, Ok (P.Error { code; _ }) ->
           Hashtbl.replace errors (P.error_code_name code) ();
           false
         | _, Ok _ -> false
         | _, Error m ->
           Hashtbl.replace errors m ();
           false
       in
       if not ok then incr failed)
    samples;
  if !failed > 0 then
    Report.problem "%d of %d daemon replies wrong or refused (%s)" !failed
      (Array.length samples)
      (String.concat ", " (List.of_seq (Hashtbl.to_seq_keys errors)));
  let lat = Array.map (fun s -> s.ns) samples in
  let n = Array.length lat in
  Report.note "%d requests in %.1f s: %.0f/s" n wall (float_of_int n /. wall);
  (* a pass is one round of the request mix: 7 ruleset scans, 1 fresh *)
  Work.report_latency ~what:"requests" ~pass:8 lat;
  (match peak with
   | Some mb -> Report.e2e "peak_rss_mb" "MB" mb
   | None -> Report.problem "no /proc entry for the daemon");
  Report.count "reference_hits"
    (float_of_int (Array.fold_left (fun a e -> a + List.length e) 0 expected));
  Report.ops ~attempted:n ~failed:!failed;
  if !Report.traced then begin
    let delta name =
      Option.value ~default:0.0 (List.assoc_opt name after)
      -. Option.value ~default:0.0 (List.assoc_opt name before)
    in
    let mean_us = Measure.mean lat /. 1e3 in
    report_server_layers ~requests:n ~mean_us ~delta;
    let rs = Work.setup ctx ~extended:false sv.Inputs.rules in
    ignore (Work.scan_counts rs sv.Inputs.slices)
  end
