(* Loopback integration tests for the serving stack: a real server
   (sockets, reader threads, worker pool) started in-process and driven
   through the real client.

   The contracts pinned down here are the ones ISSUE-level users script
   against: scan results through the daemon are byte-identical to the
   direct library API; a saturated admission queue sheds with the
   documented [overloaded] code and never stalls the connection; an
   admitted request survives shutdown (stop drains, responses arrive);
   deadlines bound queue wait; the lint gate refuses ReDoS-flagged
   patterns unless the client opts in; a garbage frame costs one
   [bad-frame] error on id 0 and the connection, nothing more.

   Determinism: timing-sensitive tests (overload, drain, deadline) use
   the {!Server.pause}/{!Server.resume} hooks — with the workers paused,
   exactly [queue_capacity] requests queue and the rest shed, no race. *)

module P = Alveare_server.Protocol
module Server = Alveare_server.Server
module Service = Alveare_server.Service
module Client = Alveare_server.Client
module Metrics = Alveare_server.Metrics
module Ruleset = Alveare_compiler.Ruleset
module Rng = Alveare_workloads.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Harness ------------------------------------------------------------ *)

let fresh_addr =
  let n = ref 0 in
  fun () ->
    incr n;
    Server.Unix_sock
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "alveare-test-%d-%d.sock" (Unix.getpid ()) !n))

let with_server ?(queue = 64) ?(workers = 4) ?(service = Service.default_config)
    f =
  let addr = fresh_addr () in
  let cfg =
    { Server.default_config with
      Server.addr;
      queue_capacity = queue;
      workers;
      idle_timeout = 10.0;
      service }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server addr)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "client transport error: %s" e

let fail_resp label (r : P.response) =
  Alcotest.failf "%s: unexpected response %a" label P.pp_response r

(* Deterministic inputs without depending on String.init ordering. *)
let make_input rng alphabet n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Rng.char_of rng alphabet)
  done;
  Bytes.to_string b

(* Expected spans straight through the library — the daemon must agree
   byte for byte. *)
let direct_spans pattern input =
  match Alveare.find_all pattern input with
  | Ok spans ->
    List.map (fun (s : Alveare.span) -> (s.Alveare.start, s.Alveare.stop)) spans
  | Error e -> Alcotest.failf "direct compile failed: %s" e

(* Hits of a direct build and scan, in the wire's shape. *)
let direct_ruleset_hits rules input =
  List.map
    (fun (h : Ruleset.hit) ->
      ( h.Ruleset.hit_rule.Ruleset.id,
        h.Ruleset.hit_rule.Ruleset.tag,
        h.Ruleset.span.Alveare_engine.Semantics.start,
        h.Ruleset.span.Alveare_engine.Semantics.stop ))
    (Ruleset.scan (Ruleset.compile_exn rules) input).Ruleset.hits

(* --- Basic round trips --------------------------------------------------- *)

let test_health () =
  with_server (fun _server addr ->
      with_client addr (fun c ->
          match ok (Client.health c) with
          | P.Health_ok { version; _ } ->
            Alcotest.(check string) "version" Service.version version
          | r -> fail_resp "health" r))

let test_scan_matches_direct () =
  let cases =
    [ ("ab+c", "xxabbbc yy abc zabc");
      ("[a-z]+@[a-z]+", "mail to ada@lovelace and alan@turing now");
      ("colou?r", "color colour colr");
      ("x", "");
      ("(GET|POST) /[a-z/]*", "GET /index POST /api/v1 PUT /x GET /") ]
  in
  with_server (fun _server addr ->
      with_client addr (fun c ->
          List.iter
            (fun (pattern, input) ->
              match ok (Client.scan c ~pattern ~input) with
              | P.Matches { spans; stats; _ } ->
                check
                  (Printf.sprintf "spans of %S" pattern)
                  true
                  (spans = direct_spans pattern input);
                check "stats well-formed" true
                  (stats.P.attempts >= List.length spans
                  && stats.P.offsets_scanned >= 0
                  && stats.P.offsets_pruned >= 0
                  && stats.P.cycles >= 0)
              | r -> fail_resp pattern r)
            cases))

let test_compile_reports_size_and_lint () =
  with_server (fun _server addr ->
      with_client addr (fun c ->
          (match ok (Client.compile c "ab+c") with
          | P.Compiled { code_size; binary_bytes; lint; _ } ->
            check "code size positive" true (code_size > 0);
            check "binary bytes positive" true (binary_bytes > 0);
            check "benign pattern has no warnings" true
              (List.for_all (fun d -> d.P.severity <> `Warning) lint)
          | r -> fail_resp "compile ab+c" r);
          match ok (Client.compile ~allow_risky:true c "(a+)+b") with
          | P.Compiled { lint; _ } ->
            check "risky pattern carries its warning" true
              (List.exists (fun d -> d.P.severity = `Warning) lint)
          | r -> fail_resp "compile (a+)+b" r))

(* --- Error codes --------------------------------------------------------- *)

let test_lint_gate () =
  with_server (fun _server addr ->
      with_client addr (fun c ->
          (match ok (Client.scan c ~pattern:"(a+)+b" ~input:"aaab") with
          | P.Error { code = P.Lint_rejected; _ } -> ()
          | r -> fail_resp "gated scan" r);
          (match ok (Client.compile c "(a+)+b") with
          | P.Error { code = P.Lint_rejected; _ } -> ()
          | r -> fail_resp "gated compile" r);
          (* the per-request override *)
          match ok (Client.scan ~allow_risky:true c ~pattern:"(a+)+b" ~input:"aaab")
          with
          | P.Matches { spans; _ } ->
            check "override scans" true (spans = direct_spans "(a+)+b" "aaab")
          | r -> fail_resp "allow_risky scan" r));
  (* ... and the server-wide switch *)
  let service = { Service.default_config with Service.lint_gate = false } in
  with_server ~service (fun _server addr ->
      with_client addr (fun c ->
          match ok (Client.scan c ~pattern:"(a+)+b" ~input:"aaab") with
          | P.Matches _ -> ()
          | r -> fail_resp "gate off" r))

let test_parse_error_and_too_large () =
  let service = { Service.default_config with Service.max_input = 64 } in
  with_server ~service (fun _server addr ->
      with_client addr (fun c ->
          (match ok (Client.scan c ~pattern:"(" ~input:"x") with
          | P.Error { code = P.Parse_error; _ } -> ()
          | r -> fail_resp "parse error" r);
          (match ok (Client.scan c ~pattern:"x" ~input:(String.make 100 'y')) with
          | P.Error { code = P.Too_large; _ } -> ()
          | r -> fail_resp "too large" r);
          (* the connection survives both refusals *)
          match ok (Client.scan c ~pattern:"x" ~input:"axa") with
          | P.Matches { spans = [ (1, 2) ]; _ } -> ()
          | r -> fail_resp "scan after errors" r))

let test_bad_frame_closes_connection () =
  with_server (fun _server addr ->
      let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          (* a length prefix the decoder must refuse *)
          ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
          let dec = P.decoder () in
          let buf = Bytes.create 4096 in
          let rec read_response () =
            match P.next_response dec with
            | P.Frame r -> Some r
            | P.Corrupt m -> Alcotest.failf "corrupt error response: %s" m
            | P.Await -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> None
              | n ->
                P.feed dec (Bytes.sub_string buf 0 n);
                read_response ())
          in
          (match read_response () with
          | Some (P.Error { id = 0; code = P.Bad_frame; _ }) -> ()
          | Some r -> fail_resp "bad frame" r
          | None -> Alcotest.fail "connection closed without an error response");
          (* framing is lost: the server hangs up after reporting *)
          let n = try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
          check_int "connection closed" 0 n))

(* --- Concurrency: N clients, workers in {1, 4} --------------------------- *)

let hammer ~workers () =
  let patterns =
    [| "ab+c"; "[a-z]+@[a-z]+"; "(GET|POST) /[a-z/]*"; "colou?r"; "z{2,5}" |]
  in
  let rng = Rng.create 0x5EEDED in
  let cases =
    Array.init 10 (fun i ->
        let pattern = patterns.(i mod Array.length patterns) in
        let input = make_input rng "abcz @/GETPOSTcolour" (512 + (i * 97)) in
        (pattern, input, direct_spans pattern input))
  in
  with_server ~workers (fun _server addr ->
      let n_clients = 6 in
      let failures = Array.make n_clients None in
      let body ti () =
        try
          with_client addr (fun c ->
              Array.iter
                (fun (pattern, input, expected) ->
                  match Client.scan c ~pattern ~input with
                  | Ok (P.Matches { spans; _ }) ->
                    if spans <> expected then
                      failures.(ti) <-
                        Some
                          (Printf.sprintf
                             "client %d: %S returned %d spans, expected %d" ti
                             pattern (List.length spans) (List.length expected))
                  | Ok r ->
                    failures.(ti) <- Some (Fmt.str "client %d: %a" ti P.pp_response r)
                  | Error e -> failures.(ti) <- Some e)
                cases)
        with e -> failures.(ti) <- Some (Printexc.to_string e)
      in
      let threads = List.init n_clients (fun ti -> Thread.create (body ti) ()) in
      List.iter Thread.join threads;
      Array.iter
        (function Some msg -> Alcotest.fail msg | None -> ())
        failures)

let test_ruleset_matches_direct () =
  let rules =
    [ ("num", "[0-9]+"); ("word", "[a-z]+"); ("abc", "ab+c"); ("at", "@") ]
  in
  let input = "42 abbbc mail@host 7 xyz" in
  let direct = direct_ruleset_hits rules input in
  with_server (fun _server addr ->
      with_client addr (fun c ->
          (match ok (Client.ruleset_scan c ~rules ~input) with
          | P.Ruleset_matches { hits; stats; _ } ->
            check "hits identical to direct Ruleset.scan" true (hits = direct);
            check "attempts counted" true (stats.P.attempts > 0)
          | r -> fail_resp "ruleset scan" r);
          (* the scan above ran on the fused one-pass engine; its
             process-wide counters surface as ruleset/* gauges *)
          (match ok (Client.stats c) with
          | P.Stats_reply { entries; _ } ->
            let value name =
              match List.assoc_opt name entries with
              | Some v -> v
              | None -> Alcotest.failf "stats entry %S missing" name
            in
            check "onepass sweep counted" true
              (value "ruleset/onepass-scans" >= 1.0);
            check "shared pass swept the input" true
              (value "ruleset/shared-pass-bytes"
               >= Float.of_int (String.length input));
            check "dispatch gauge present" true
              (List.mem_assoc "ruleset/dispatch-candidates" entries);
            check "ac gauge present" true
              (List.mem_assoc "ruleset/ac-candidates" entries);
            check "product gauges present" true
              (List.mem_assoc "ruleset/product-rules" entries
              && List.mem_assoc "ruleset/product-threads" entries
              && List.mem_assoc "ruleset/product-states" entries)
          | r -> fail_resp "stats" r);
          (* one bad rule poisons the batch with parse-error, not a crash *)
          match ok (Client.ruleset_scan c ~rules:[ ("good", "a"); ("bad", "(") ]
                      ~input:"a")
          with
          | P.Error { code = P.Parse_error; _ } -> ()
          | r -> fail_resp "ruleset parse error" r))

(* --- Overload: saturate the queue, observe explicit shedding ------------- *)

let test_overload_sheds () =
  with_server ~queue:2 ~workers:1 (fun server addr ->
      Server.pause server;
      with_client addr (fun c ->
          let input = "zzabbczz" in
          for id = 1 to 8 do
            Client.send c
              (P.Scan
                 { id; pattern = "ab+c"; input; deadline_ms = 0;
                   allow_risky = false })
          done;
          (* With the workers paused: requests 1 and 2 fill the queue,
             3..8 are shed by the reader thread immediately — those six
             responses arrive first, in request order. *)
          let sheds = List.init 6 (fun _ -> ok (Client.recv c)) in
          List.iteri
            (fun i r ->
              match r with
              | P.Error { id; code = P.Overloaded; _ } -> check_int "shed id" (i + 3) id
              | r -> fail_resp "expected overloaded" r)
            sheds;
          check_int "queue holds exactly its capacity" 2
            (Server.queue_depth server);
          (* release the workers: the two admitted requests complete *)
          Server.resume server;
          let expected = direct_spans "ab+c" input in
          List.iter
            (fun want_id ->
              match ok (Client.recv c) with
              | P.Matches { id; spans; _ } ->
                check_int "admitted id" want_id id;
                check "admitted result correct" true (spans = expected)
              | r -> fail_resp "admitted response" r)
            [ 1; 2 ];
          check_int "queue drained" 0 (Server.queue_depth server)))

(* --- Deadlines bound queue wait ------------------------------------------ *)

let test_deadline_exceeded () =
  with_server ~queue:4 ~workers:1 (fun server addr ->
      Server.pause server;
      with_client addr (fun c ->
          Client.send c
            (P.Scan
               { id = 7; pattern = "ab+c"; input = "xabc"; deadline_ms = 30;
                 allow_risky = false });
          Thread.delay 0.1;  (* let the 30 ms admission deadline pass *)
          Server.resume server;
          (match ok (Client.recv c) with
          | P.Error { id = 7; code = P.Deadline_exceeded; _ } -> ()
          | r -> fail_resp "deadline" r);
          (* deadline_ms = 0 means no deadline, even after a pause *)
          Server.pause server;
          Client.send c
            (P.Scan
               { id = 8; pattern = "ab+c"; input = "xabc"; deadline_ms = 0;
                 allow_risky = false });
          Thread.delay 0.05;
          Server.resume server;
          match ok (Client.recv c) with
          | P.Matches { id = 8; _ } -> ()
          | r -> fail_resp "no deadline" r))

(* --- Graceful shutdown drains admitted work ------------------------------ *)

let test_stop_drains () =
  let addr = fresh_addr () in
  let cfg =
    { Server.default_config with
      Server.addr;
      queue_capacity = 8;
      workers = 2;
      idle_timeout = 10.0 }
  in
  let server = Server.start cfg in
  Server.pause server;
  let c = Client.connect addr in
  let input = "xx abc abbc y" in
  Client.send c
    (P.Scan { id = 1; pattern = "ab+c"; input; deadline_ms = 0; allow_risky = false });
  Client.send c
    (P.Scan { id = 2; pattern = "ab+c"; input; deadline_ms = 0; allow_risky = false });
  (* wait for the reader thread to admit both *)
  let rec await_admission tries =
    if Server.queue_depth server < 2 then
      if tries = 0 then Alcotest.fail "requests were not admitted"
      else begin
        Thread.delay 0.01;
        await_admission (tries - 1)
      end
  in
  await_admission 500;
  (* stop with the workers paused: the drain must override the pause and
     answer both admitted requests before tearing anything down *)
  let stopper = Thread.create Server.stop server in
  let expected = direct_spans "ab+c" input in
  let r1 = ok (Client.recv c) in
  let r2 = ok (Client.recv c) in
  List.iter
    (fun r ->
      match r with
      | P.Matches { spans; _ } ->
        check "drained response correct" true (spans = expected)
      | r -> fail_resp "drained response" r)
    [ r1; r2 ];
  check "both ids answered" true
    (List.sort compare [ P.response_id r1; P.response_id r2 ] = [ 1; 2 ]);
  Thread.join stopper;
  Server.stop server;  (* idempotent *)
  Client.close c;
  (* the socket file is gone: a new connection must be refused *)
  (match Client.connect addr with
  | exception Unix.Unix_error _ -> ()
  | c2 ->
    Client.close c2;
    Alcotest.fail "server still accepting after stop")

(* --- Stats / metrics end to end ------------------------------------------ *)

let test_stats_reply () =
  with_server (fun server addr ->
      with_client addr (fun c ->
          ignore (ok (Client.health c));
          (match ok (Client.scan c ~pattern:"ab+c" ~input:"xabbc") with
          | P.Matches _ -> ()
          | r -> fail_resp "scan" r);
          (match ok (Client.stats c) with
          | P.Stats_reply { entries; _ } ->
            let value name =
              match List.assoc_opt name entries with
              | Some v -> v
              | None -> Alcotest.failf "stats entry %S missing" name
            in
            check "scan counted" true (value "requests/scan" >= 1.0);
            check "health counted" true (value "requests/health" >= 1.0);
            check "admission counted" true (value "admission/admitted" >= 2.0);
            check "latency histogram populated" true
              (value "latency/scan/count" >= 1.0);
            check "this connection is open" true (value "connections/open" >= 1.0);
            check "queue-depth gauge present" true
              (value "admission/queue-depth" = 0.0);
            check "pool gauge present" true
              (List.mem_assoc "exec/pool-queue-depth" entries);
            (* the lazy-DFA overlay ran for the scan above ("ab+c" is
               fully backtracking-free), so its cache gauges are live *)
            check "dfa states built" true (value "dfa/states-built" >= 1.0);
            check "dfa lookups served" true (value "dfa/hits" >= 1.0);
            check "dfa attempts completed on the table" true
              (value "dfa/attempts" >= 1.0);
            check "dfa flush gauge present" true
              (List.mem_assoc "dfa/flushes" entries);
            check "dfa refusal gauge present" true
              (List.mem_assoc "dfa/refused" entries)
          | r -> fail_resp "stats" r);
          (* the registry agrees with the wire view *)
          check "server-side counter" true
            (Metrics.counter_value (Server.metrics server) "requests/scan" >= 1)))

(* --- TCP transport ------------------------------------------------------- *)

let test_tcp_transport () =
  let cfg =
    { Server.default_config with
      Server.addr = Server.Tcp ("", 0);
      idle_timeout = 10.0 }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port =
        match Server.port server with
        | Some p -> p
        | None -> Alcotest.fail "TCP server reports no port"
      in
      with_client (Server.Tcp ("127.0.0.1", port)) (fun c ->
          match ok (Client.scan c ~pattern:"ab+c" ~input:"_abbbc_") with
          | P.Matches { spans = [ (1, 6) ]; _ } -> ()
          | r -> fail_resp "tcp scan" r))

(* --- Service.handle directly (no sockets) -------------------------------- *)

let test_service_deadline_direct () =
  let svc = Service.create (Metrics.create ()) in
  let req =
    P.Scan { id = 3; pattern = "a"; input = "a"; deadline_ms = 5; allow_risky = false }
  in
  (match Service.handle svc ~deadline:(Unix.gettimeofday () -. 1.0) req with
  | P.Error { id = 3; code = P.Deadline_exceeded; _ } -> ()
  | r -> fail_resp "expired deadline" r);
  match Service.handle svc ~deadline:(Unix.gettimeofday () +. 60.0) req with
  | P.Matches { id = 3; spans = [ (0, 1) ]; _ } -> ()
  | r -> fail_resp "live deadline" r

(* --- Built-ruleset cache --------------------------------------------------- *)

let ruleset_request ?(allow_risky = false) ?(id = 1) rules input =
  P.Ruleset_scan { id; rules; input; deadline_ms = 0; allow_risky }

(* The ruleset-cache gauges of a service, as ints. *)
let ruleset_cache svc name =
  match
    List.assoc_opt ("ruleset-cache/" ^ name)
      (Metrics.snapshot (Service.metrics svc))
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "gauge ruleset-cache/%s missing" name

let cache_rules = [ ("num", "[0-9]+"); ("word", "[a-z]+"); ("abc", "ab+c") ]
let cache_input = "42 abbbc mail 7 xyz abc 123"

(* A repeated request hits, and answers as the build it reuses; any
   change to a tag, a pattern or the order of the rules misses. *)
let test_ruleset_cache_hits () =
  let svc = Service.create (Metrics.create ()) in
  let first = Service.handle svc (ruleset_request cache_rules cache_input) in
  (match first with
   | P.Ruleset_matches { hits; _ } ->
     check "first = direct" true
       (hits = direct_ruleset_hits cache_rules cache_input)
   | r -> fail_resp "first ruleset scan" r);
  check_int "first request misses" 1 (ruleset_cache svc "misses");
  check_int "and is kept" 1 (ruleset_cache svc "size");
  let second = Service.handle svc (ruleset_request cache_rules cache_input) in
  check_int "second request hits" 1 (ruleset_cache svc "hits");
  check "second response = first" true (second = first);
  let misses_for label rules =
    let before = ruleset_cache svc "misses" in
    (match Service.handle svc (ruleset_request rules cache_input) with
     | P.Ruleset_matches { hits; _ } ->
       check (label ^ ": = direct") true
         (hits = direct_ruleset_hits rules cache_input)
     | r -> fail_resp label r);
    check_int (label ^ " misses") (before + 1) (ruleset_cache svc "misses")
  in
  misses_for "tag changed"
    [ ("num", "[0-9]+"); ("words", "[a-z]+"); ("abc", "ab+c") ];
  misses_for "pattern changed"
    [ ("num", "[0-9]+"); ("word", "[a-y]+"); ("abc", "ab+c") ];
  misses_for "order changed"
    [ ("word", "[a-z]+"); ("num", "[0-9]+"); ("abc", "ab+c") ];
  (* the key cannot be forged by moving bytes between fields *)
  misses_for "field boundary moved"
    [ ("nu", "m[0-9]+"); ("word", "[a-z]+"); ("abc", "ab+c") ];
  check_int "one hit in all" 1 (ruleset_cache svc "hits")

(* A ruleset with a parse error is refused on every request and never
   kept; one over the admission bound is answered but never kept. *)
let test_ruleset_cache_refusals () =
  let svc = Service.create (Metrics.create ()) in
  let bad = [ ("good", "a"); ("bad", "(") ] in
  for _ = 1 to 2 do
    match Service.handle svc (ruleset_request bad "a") with
    | P.Error { code = P.Parse_error; _ } -> ()
    | r -> fail_resp "bad ruleset" r
  done;
  check_int "bad ruleset never kept" 0 (ruleset_cache svc "size");
  check_int "and never hit" 0 (ruleset_cache svc "hits");
  (* a 16-entry compile cache admits rulesets of at most 2 rules *)
  let small =
    Service.create
      ~config:
        { Service.default_config with
          Service.cache = Alveare_compiler.Compile.create_cache ~capacity:16 () }
      (Metrics.create ())
  in
  for _ = 1 to 2 do
    match Service.handle small (ruleset_request cache_rules cache_input) with
    | P.Ruleset_matches { hits; _ } ->
      check "oversized ruleset = direct" true
        (hits = direct_ruleset_hits cache_rules cache_input)
    | r -> fail_resp "oversized ruleset" r
  done;
  check_int "oversized ruleset never kept" 0 (ruleset_cache small "size");
  check_int "nor looked up" 0
    (ruleset_cache small "hits" + ruleset_cache small "misses")

(* Nine distinct rulesets: the ninth evicts the least recently used. *)
let test_ruleset_cache_bound () =
  let svc = Service.create (Metrics.create ()) in
  for k = 0 to 8 do
    let rules = [ ("r", Printf.sprintf "x%dy" k) ] in
    ignore (Service.handle svc (ruleset_request rules "x1y x8y"))
  done;
  check "at most 8 kept" true (ruleset_cache svc "size" <= 8);
  check "an eviction" true (ruleset_cache svc "evictions" >= 1)

(* A cache hit is no way around the admission gate: a ruleset kept by
   an [allow_risky] request is refused to a request without it. *)
let test_ruleset_cache_gate () =
  let svc = Service.create (Metrics.create ()) in
  let rules = [ ("ok", "ab+c"); ("redos", "(a+)+b") ] in
  (match
     Service.handle svc (ruleset_request ~allow_risky:true rules "aaab abc")
   with
   | P.Ruleset_matches _ -> ()
   | r -> fail_resp "risky ruleset with override" r);
  (match Service.handle svc (ruleset_request rules "aaab abc") with
   | P.Error { code = P.Lint_rejected; _ } -> ()
   | r -> fail_resp "risky ruleset on a cache hit" r);
  check_int "refused on a hit" 1 (ruleset_cache svc "hits")

(* Two connections scan one standing ruleset at once: every reply
   equals a scan of a directly compiled ruleset, though the daemon's
   workers share one cached build. *)
let test_ruleset_cache_concurrent () =
  let rules =
    [ ("num", "[0-9]+"); ("word", "[a-z]+"); ("abc", "ab+c");
      ("mail", "[a-z]+@[a-z]+"); ("get", "(GET|POST) /[a-z/]*") ]
  in
  let rng = Rng.create 0xCAC4E in
  let inputs =
    Array.init 6 (fun i ->
        make_input rng "abc09 @/GETPOST" (700 + (i * 131)))
  in
  let expected = Array.map (direct_ruleset_hits rules) inputs in
  with_server ~workers:2 (fun server addr ->
      let failures = Array.make 2 None in
      let body ti () =
        try
          with_client addr (fun c ->
              for round = 0 to 3 do
                Array.iteri
                  (fun k input ->
                    match Client.ruleset_scan c ~rules ~input with
                    | Ok (P.Ruleset_matches { hits; _ }) ->
                      if hits <> expected.(k) then
                        failures.(ti) <-
                          Some
                            (Printf.sprintf
                               "client %d round %d input %d: %d hits, \
                                expected %d" ti round k (List.length hits)
                               (List.length expected.(k)))
                    | Ok r ->
                      failures.(ti) <-
                        Some (Fmt.str "client %d: %a" ti P.pp_response r)
                    | Error e -> failures.(ti) <- Some e)
                  inputs
              done)
        with e -> failures.(ti) <- Some (Printexc.to_string e)
      in
      let threads = List.init 2 (fun ti -> Thread.create (body ti) ()) in
      List.iter Thread.join threads;
      Array.iter (function Some msg -> Alcotest.fail msg | None -> ()) failures;
      let gauge name =
        List.assoc ("ruleset-cache/" ^ name)
          (Metrics.snapshot (Server.metrics server))
      in
      check "the standing ruleset was kept" true (gauge "size" >= 1.0);
      check "and reused" true (gauge "hits" >= 40.0))

(* --- Multi-core scans -------------------------------------------------------- *)

(* A 600-byte match of an unbounded pattern whose start lies in the
   first half: at 2 or 4 cores it straddles a slice boundary by more
   than the fixed 256-byte default window, so only a window sized from
   the pattern completes it. *)
let straddle_pattern = "a[^q]*b"

let straddle_input =
  String.make 700 'q' ^ "a" ^ String.make 598 'x' ^ "b" ^ String.make 700 'q'

let multicore_service cores =
  Service.create
    ~config:{ Service.default_config with Service.cores }
    (Metrics.create ())

let test_multicore_window () =
  List.iter
    (fun cores ->
       match
         Service.handle (multicore_service cores)
           (P.Scan
              { id = 1; pattern = straddle_pattern; input = straddle_input;
                deadline_ms = 0; allow_risky = false })
       with
       | P.Matches { spans; _ } ->
         check (Printf.sprintf "Scan at %d cores" cores) true
           (spans = [ (700, 1300) ])
       | r -> fail_resp "straddling scan" r)
    [ 2; 4 ];
  let expected = [ { Alveare.start = 700; stop = 1300 } ] in
  (match Alveare.find_all ~cores:2 straddle_pattern straddle_input with
   | Ok spans -> check "Alveare.find_all ~cores:2" true (spans = expected)
   | Error e -> Alcotest.fail e);
  match Alveare.simulate ~cores:2 straddle_pattern straddle_input with
  | Ok (spans, _) -> check "Alveare.simulate ~cores:2" true (spans = expected)
  | Error e -> Alcotest.fail e

(* A [Scan] and the one-rule [Ruleset_scan] of the same pattern report
   the same stats at every core count: [cycles] is the wall figure
   (the slowest core's) on both. The pattern's one usable literal is
   its first byte, so the ruleset's literal candidates and the scan's
   first-set candidates are the same offsets. The second input holds
   64 short matches, none near a window's length. *)
let test_multicore_scan_stats () =
  let short_matches =
    String.concat ""
      (List.init 64 (fun i -> String.make (i mod 7) 'q' ^ "axb" ^ "yyyy"))
  in
  List.iter
    (fun (name, input, cores) ->
       let svc = multicore_service cores in
       let scan =
         Service.handle svc
           (P.Scan
              { id = 1; pattern = straddle_pattern; input; deadline_ms = 0;
                allow_risky = false })
       in
       let ruleset =
         Service.handle svc
           (ruleset_request [ ("r", straddle_pattern) ] input)
       in
       match scan, ruleset with
       | P.Matches { stats = a; spans; _ },
         P.Ruleset_matches { stats = b; hits; _ } ->
         let label = Printf.sprintf "%s, %d cores" name cores in
         check (label ^ ": spans") true
           (spans = List.map (fun (_, _, s, e) -> (s, e)) hits);
         check_int (label ^ ": attempts") b.P.attempts a.P.attempts;
         check_int (label ^ ": offsets scanned") b.P.offsets_scanned
           a.P.offsets_scanned;
         check_int (label ^ ": offsets pruned") b.P.offsets_pruned
           a.P.offsets_pruned;
         check_int (label ^ ": cycles") b.P.cycles a.P.cycles
       | r, _ -> fail_resp "scan and ruleset scan" r)
    (List.concat_map
       (fun cores ->
          [ ("short matches", short_matches, cores);
            ("straddle", straddle_input, cores) ])
       [ 1; 2; 4 ])

(* A multi-core ruleset scan takes its literal candidates from the one
   fused sweep, so the sweep gauges count it: one sweep, the input's
   bytes and every candidate. It dispatches nothing: at 2 cores the
   first-set rule scans on the simulated cores, after the sweep. *)
let test_multicore_sweep_gauges () =
  let svc = multicore_service 2 in
  let input = "alert x alert 12 alerted" in
  let gauges () =
    let entries = Metrics.snapshot (Service.metrics svc) in
    List.map
      (fun name -> int_of_float (List.assoc ("ruleset/" ^ name) entries))
      [ "onepass-scans"; "shared-pass-bytes"; "ac-candidates";
        "dispatch-candidates" ]
  in
  let before = gauges () in
  (match
     Service.handle svc
       (ruleset_request [ ("lit", "alert"); ("num", "[0-9]+") ] input)
   with
   | P.Ruleset_matches { hits; _ } -> check_int "hits" 4 (List.length hits)
   | r -> fail_resp "multi-core ruleset scan" r);
  List.iter2
    (fun (name, want) (b, a) -> check_int name want (a - b))
    [ ("onepass-scans", 1); ("shared-pass-bytes", String.length input);
      ("ac-candidates", 3); ("dispatch-candidates", 0) ]
    (List.combine before (gauges ()))

let test_cores_validated () =
  List.iter
    (fun cores ->
       check (Printf.sprintf "cores = %d refused" cores) true
         (try ignore (multicore_service cores); false
          with Invalid_argument _ -> true))
    [ 0; -1 ]

let () =
  Alcotest.run "server"
    [ ( "round-trip",
        [ Alcotest.test_case "health" `Quick test_health;
          Alcotest.test_case "scan = direct find_all" `Quick
            test_scan_matches_direct;
          Alcotest.test_case "compile reports size and lint" `Quick
            test_compile_reports_size_and_lint;
          Alcotest.test_case "ruleset scan = direct Ruleset.scan" `Quick
            test_ruleset_matches_direct;
          Alcotest.test_case "tcp transport" `Quick test_tcp_transport ] );
      ( "error-codes",
        [ Alcotest.test_case "lint gate and overrides" `Quick test_lint_gate;
          Alcotest.test_case "parse error and input cap" `Quick
            test_parse_error_and_too_large;
          Alcotest.test_case "bad frame closes connection" `Quick
            test_bad_frame_closes_connection ] );
      ( "concurrency",
        [ Alcotest.test_case "6 clients, 1 worker" `Quick (hammer ~workers:1);
          Alcotest.test_case "6 clients, 4 workers" `Quick (hammer ~workers:4) ]
      );
      ( "load-and-lifecycle",
        [ Alcotest.test_case "overload sheds explicitly" `Quick
            test_overload_sheds;
          Alcotest.test_case "deadline bounds queue wait" `Quick
            test_deadline_exceeded;
          Alcotest.test_case "stop drains admitted work" `Quick
            test_stop_drains ] );
      ( "observability",
        [ Alcotest.test_case "stats reply end to end" `Quick test_stats_reply;
          Alcotest.test_case "Service.handle deadline direct" `Quick
            test_service_deadline_direct ] );
      ( "ruleset-cache",
        [ Alcotest.test_case "hits, misses and equal replies" `Quick
            test_ruleset_cache_hits;
          Alcotest.test_case "parse errors and oversized sets not kept" `Quick
            test_ruleset_cache_refusals;
          Alcotest.test_case "bounded at 8 rulesets" `Quick
            test_ruleset_cache_bound;
          Alcotest.test_case "gate runs on a hit" `Quick
            test_ruleset_cache_gate;
          Alcotest.test_case "two connections, one build" `Quick
            test_ruleset_cache_concurrent ] );
      ( "multi-core",
        [ Alcotest.test_case "window sized from the pattern" `Quick
            test_multicore_window;
          Alcotest.test_case "scan stats = one-rule ruleset stats" `Quick
            test_multicore_scan_stats;
          Alcotest.test_case "sweep gauges count a 2-core scan" `Quick
            test_multicore_sweep_gauges;
          Alcotest.test_case "core count validated" `Quick
            test_cores_validated ] ) ]
