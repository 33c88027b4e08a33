(* The ALVEARE matching daemon: bind a Unix or TCP socket, serve
   compile/scan/ruleset-scan/stats/health requests over the binary wire
   protocol (lib/server/protocol.mli), shed under overload, and drain
   in-flight work on SIGINT/SIGTERM.

     alveared --socket /tmp/alveared.sock
     alveared --tcp 9099 --queue 128 --workers 8 --scan-workers 4
     alveared --socket s.sock --no-lint-gate --idle-timeout 60

   Ctrl-C is the graceful path: stop accepting, answer queued work,
   flush every response, exit 0 — the shutdown contract the loopback
   tests exercise in-process. A second Ctrl-C aborts hard. *)

module Server = Alveare_server.Server
module Service = Alveare_server.Service
module Metrics = Alveare_server.Metrics
module Compile = Alveare_compiler.Compile
open Cmdliner

let want_stop = Atomic.make false
let force_stop = Atomic.make false

let install_signals () =
  let handle _ =
    if Atomic.get want_stop then Atomic.set force_stop true
    else Atomic.set want_stop true
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

let summarize metrics =
  let interesting name =
    List.exists
      (fun p -> String.length name >= String.length p
                && String.sub name 0 (String.length p) = p)
      [ "requests/"; "admission/"; "errors/"; "connections/" ]
  in
  let rows = List.filter (fun (n, _) -> interesting n) (Metrics.snapshot metrics) in
  if rows <> [] then begin
    Fmt.pr "@.== serving summary ==@.";
    List.iter (fun (n, v) -> Fmt.pr "  %-28s %.0f@." n v) rows
  end

let main socket tcp queue workers scan_workers cores cache_capacity
    idle_timeout no_lint_gate max_poly_degree max_input extended quiet =
  let addr =
    match (socket, tcp) with
    | _, Some port -> Server.Tcp ("", port)
    | Some path, None -> Server.Unix_sock path
    | None, None -> Server.Unix_sock "/tmp/alveared.sock"
  in
  let service =
    { Service.cache = Compile.create_cache ~capacity:cache_capacity ();
      scan_workers;
      cores;
      lint_gate = not no_lint_gate;
      max_polynomial_degree = max_poly_degree;
      max_input;
      extended }
  in
  let cfg =
    { Server.default_config with
      Server.addr;
      queue_capacity = queue;
      workers;
      idle_timeout;
      service }
  in
  install_signals ();
  match Server.start cfg with
  | exception Unix.Unix_error (e, _, arg) ->
    Fmt.epr "alveared: cannot bind %s: %s@." arg (Unix.error_message e);
    1
  | exception Invalid_argument m ->
    (* a setting [Server.start] or [Service.create] refuses *)
    Fmt.epr "alveared: %s@." m;
    1
  | server ->
    if not quiet then begin
      (match addr with
      | Server.Unix_sock path -> Fmt.pr "alveared: listening on %s@." path
      | Server.Tcp (_, _) ->
        Fmt.pr "alveared: listening on 127.0.0.1:%d@."
          (Option.value ~default:0 (Server.port server)));
      Fmt.pr
        "alveared: %d workers, queue %d, lint gate %s — Ctrl-C drains and \
         exits@."
        workers queue
        (if no_lint_gate then "off" else "on")
    end;
    while not (Atomic.get want_stop) do
      Thread.delay 0.2
    done;
    if not quiet then Fmt.pr "alveared: draining in-flight requests...@.";
    (* a hard second signal skips the drain only by killing the process;
       [stop] itself always drains *)
    if Atomic.get force_stop then exit 130;
    Server.stop server;
    if not quiet then summarize (Server.metrics server);
    0

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at PATH (default \
                 /tmp/alveared.sock). An existing socket file is replaced.")

let tcp_arg =
  Arg.(value & opt (some int) None
       & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:PORT instead of a Unix socket \
                 (0 picks a free port).")

let queue_arg =
  Arg.(value & opt int 64
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission queue capacity. A request arriving with N \
                 already waiting is shed with the overloaded error code \
                 instead of stalling the connection.")

let workers_arg =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker threads draining the admission queue.")

let scan_workers_arg =
  Arg.(value & opt int 1
       & info [ "scan-workers" ] ~docv:"N"
           ~doc:"Host domains fanning out the per-rule simulations of one \
                 ruleset scan (Exec.Pool).")

let cores_arg =
  Arg.(value & opt int 1
       & info [ "cores" ] ~docv:"N" ~doc:"Simulated DSA cores per scan.")

let cache_arg =
  Arg.(value & opt int 1024
       & info [ "cache" ] ~docv:"N"
           ~doc:"Compiled-pattern LRU capacity (entries).")

let idle_arg =
  Arg.(value & opt float 30.0
       & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Close connections idle longer than this.")

let no_lint_gate_arg =
  Arg.(value & flag
       & info [ "no-lint-gate" ]
           ~doc:"Serve patterns with proven-exploitable backtracking \
                 without requiring the per-request allow_risky override.")

let max_poly_degree_arg =
  Arg.(value & opt (some int) None
       & info [ "max-poly-degree" ] ~docv:"K"
           ~doc:"Also refuse patterns with proven polynomial backtracking \
                 of degree K or higher (attempt cost grows like \
                 n^(K+1)). By default only proven-exponential patterns \
                 are refused.")

let max_input_arg =
  Arg.(value & opt int (16 * 1024 * 1024)
       & info [ "max-input" ] ~docv:"BYTES"
           ~doc:"Reject scan inputs larger than this with too-large.")

let extended_arg =
  Arg.(value & flag
       & info [ "extended" ]
           ~doc:"Accept the extended pattern dialect (intersection &, \
                 complement (?~r), lookarounds). Patterns the mid-end \
                 cannot rewrite for the ISA are served by the derivative \
                 engine (worst-case linear per start position, so they \
                 pass the admission gate by construction). Advertised via \
                 the +extended suffix on the Health version string.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup/shutdown chatter.")

let cmd =
  Cmd.v
    (Cmd.info "alveared" ~version:"1.0"
       ~doc:"ALVEARE matching daemon: serve RE compilation and scanning \
             over a binary wire protocol."
       ~man:
         [ `S Manpage.s_description;
           `P "Long-lived serving front-end over the ALVEARE stack: \
               requests are length-prefixed binary frames (see \
               lib/server/protocol.mli and the README wire-format table); \
               compiles go through the shared LRU, submitted patterns pass \
               the ReDoS lint gate, scans run on the cycle-level DSA \
               simulator (on the lazy-DFA overlay wherever a pattern's \
               backtracking-free fragments allow it; responses are those \
               of the plan executor either way). Overload sheds with an \
               explicit error code; SIGINT/SIGTERM drain in-flight \
               requests before exiting." ])
    Term.(
      const main $ socket_arg $ tcp_arg $ queue_arg $ workers_arg
      $ scan_workers_arg $ cores_arg $ cache_arg $ idle_arg $ no_lint_gate_arg
      $ max_poly_degree_arg $ max_input_arg $ extended_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
