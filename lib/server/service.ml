(* Request broker. One entry point, [handle]; everything else is the
   plumbing that makes a request observable (metrics) and refusable
   (lint gate, input cap, deadline). Isolation from the socket layer is
   deliberate: the loopback integration tests drive a full server, but
   the behavioural matrix (error codes, gate overrides, stat identities)
   is cheapest to pin down by calling [handle] directly. *)

module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Multicore = Alveare_multicore.Multicore
module Lint = Alveare_analysis.Lint
module Ambiguity = Alveare_analysis.Ambiguity
module Pool = Alveare_exec.Pool
module Cache = Alveare_exec.Cache

let version = "alveare-server/1"

(* Capability advertisement: the wire protocol is unchanged by the
   extended dialect (patterns are strings either way), so clients
   discover it from the Health version string. *)
let advertised_version ~extended =
  if extended then version ^ "+extended" else version

type config = {
  cache : Compile.cache;
  scan_workers : int;
  cores : int;
  lint_gate : bool;
  max_polynomial_degree : int option;
  max_input : int;
  extended : bool;
}

let default_config =
  { cache = Compile.default_cache;
    scan_workers = 1;
    cores = 1;
    lint_gate = true;
    max_polynomial_degree = None;
    max_input = 16 * 1024 * 1024;
    extended = false }

(* Built rulesets, keyed on the request's rule list: a standing ruleset
   resent with every request is compiled, indexed and fused once. A
   [Ruleset.t] is immutable (per-scan cursors and overlay sessions are
   made by each scan), so concurrent workers share one. The bound is a
   constant, not a setting: [rulesets_cached] rulesets, each of at most
   1/[rulesets_cached] of the compile cache's capacity in rules, so the
   cache never pins more compiled rules than the compile cache holds. *)
let rulesets_cached = 8

type t = {
  config : config;
  metrics : Metrics.t;
  rulesets : Ruleset.t Cache.t;
}

let create ?(config = default_config) metrics =
  if config.cores < 1 then invalid_arg "Service.create: cores < 1";
  let rulesets = Cache.create ~capacity:rulesets_cached () in
  Metrics.register_gauge metrics "exec/pool-queue-depth" (fun () ->
      Float.of_int (Pool.queue_depth ()));
  let register_cache prefix stats =
    List.iter
      (fun (name, f) ->
         Metrics.register_gauge metrics (prefix ^ name) (fun () ->
             Float.of_int (f (stats ()))))
      [ ("size", fun s -> s.Cache.size);
        ("hits", fun s -> s.Cache.hits);
        ("misses", fun s -> s.Cache.misses);
        ("evictions", fun s -> s.Cache.evictions) ]
  in
  register_cache "cache/" (fun () -> Compile.cache_stats config.cache);
  register_cache "ruleset-cache/" (fun () -> Cache.stats rulesets);
  Metrics.register_gauge metrics "cache/hit-rate" (fun () ->
      let s = Compile.cache_stats config.cache in
      let lookups = s.Cache.hits + s.Cache.misses in
      if lookups = 0 then 0.0
      else Float.of_int s.Cache.hits /. Float.of_int lookups);
  (* Lazy-DFA overlay cache counters: process totals over every
     pattern family ever scanned. *)
  let dfa_stat f =
    fun () -> Float.of_int (f (Alveare_arch.Dfa_overlay.global_stats ()))
  in
  let module D = Alveare_arch.Dfa_overlay in
  Metrics.register_gauge metrics "dfa/states-built"
    (dfa_stat (fun s -> s.D.states_built));
  Metrics.register_gauge metrics "dfa/transitions-built"
    (dfa_stat (fun s -> s.D.transitions_built));
  Metrics.register_gauge metrics "dfa/hits" (dfa_stat (fun s -> s.D.hits));
  Metrics.register_gauge metrics "dfa/misses" (dfa_stat (fun s -> s.D.misses));
  Metrics.register_gauge metrics "dfa/flushes"
    (dfa_stat (fun s -> s.D.flushes));
  Metrics.register_gauge metrics "dfa/bails" (dfa_stat (fun s -> s.D.bails));
  Metrics.register_gauge metrics "dfa/attempts"
    (dfa_stat (fun s -> s.D.dfa_attempts));
  Metrics.register_gauge metrics "dfa/refused"
    (dfa_stat (fun s -> s.D.refused));
  (* Fused one-pass ruleset scan counters, process-wide over every
     combined sweep. *)
  let onepass_stat f =
    fun () -> Float.of_int (f (Alveare_compiler.Combined.counters ()))
  in
  let module C = Alveare_compiler.Combined in
  Metrics.register_gauge metrics "ruleset/onepass-scans"
    (onepass_stat (fun s -> s.C.onepass_scans));
  Metrics.register_gauge metrics "ruleset/shared-pass-bytes"
    (onepass_stat (fun s -> s.C.shared_pass_bytes));
  Metrics.register_gauge metrics "ruleset/dispatch-candidates"
    (onepass_stat (fun s -> s.C.dispatch_candidates));
  Metrics.register_gauge metrics "ruleset/ac-candidates"
    (onepass_stat (fun s -> s.C.ac_candidates));
  Metrics.register_gauge metrics "ruleset/product-rules"
    (onepass_stat (fun s -> s.C.product_rules));
  Metrics.register_gauge metrics "ruleset/product-threads"
    (onepass_stat (fun s -> s.C.product_threads));
  Metrics.register_gauge metrics "ruleset/product-states"
    (onepass_stat (fun s -> s.C.product_states));
  { config; metrics; rulesets }

let config t = t.config
let metrics t = t.metrics

(* --- Conversions -------------------------------------------------------- *)

let lint_diag (d : Lint.diagnostic) : Protocol.lint_diag =
  { severity = (match d.Lint.severity with Lint.Info -> `Info | Lint.Warning -> `Warning);
    kind = Lint.kind_name d.Lint.kind;
    left = d.Lint.left;
    right = d.Lint.right;
    message = d.Lint.message }

(* Admission verdict for one analysed pattern: [Some (metric, why)]
   when the precise analysis says the worst case is non-linear and the
   configured policy refuses it. Exponential patterns are refused by
   default; polynomial ones only when [max_polynomial_degree] is set
   and the proven degree reaches it. Heuristic (Info) lint diagnostics
   never gate admission on their own. *)
let refusal_of_analysis t (a : Ambiguity.t) : (string * string) option =
  let witness_text () =
    match a.Ambiguity.witness with
    | None -> ""
    | Some w ->
      Printf.sprintf " — validated attack witness pumps %S at bytes %d..%d"
        w.Ambiguity.pump w.Ambiguity.pump_left w.Ambiguity.pump_right
  in
  match a.Ambiguity.verdict with
  | Ambiguity.Exponential ->
    Some
      ( "gate/rejected-exponential",
        Printf.sprintf "proven exponential backtracking%s" (witness_text ()) )
  | Ambiguity.Polynomial d ->
    (match t.config.max_polynomial_degree with
     | Some k when d >= k ->
       Some
         ( "gate/rejected-polynomial",
           Printf.sprintf
             "proven polynomial backtracking of degree %d (server limit %d)%s"
             d k (witness_text ()) )
     | _ -> None)
  | Ambiguity.Linear -> None

let refusal t (c : Compile.compiled) = refusal_of_analysis t c.Compile.analysis

let rejection_message pattern why =
  Printf.sprintf
    "pattern %S refused by the admission gate: %s; resend with allow_risky \
     to override"
    pattern why

(* --- Request handlers --------------------------------------------------- *)

let err t id code message =
  Metrics.inc t.metrics ("errors/" ^ Protocol.error_code_name code);
  Protocol.Error { id; code; message }

let gate t ~id ~allow_risky (c : Compile.compiled) k =
  match refusal t c with
  | None -> k c
  | Some _ when (not t.config.lint_gate) || allow_risky -> k c
  | Some (metric, why) ->
    Metrics.inc t.metrics metric;
    err t id Protocol.Lint_rejected
      (rejection_message c.Compile.pattern why)

let compile_pattern t ~id pattern k =
  match
    Compile.cached ~cache:t.config.cache ~extended:t.config.extended pattern
  with
  | Error e -> err t id Protocol.Parse_error (Compile.error_message e)
  | Ok c -> k c

let check_input t ~id input k =
  if String.length input > t.config.max_input then
    err t id Protocol.Too_large
      (Printf.sprintf "input is %d bytes; this server accepts at most %d"
         (String.length input) t.config.max_input)
  else k ()

let handle_compile t ~id ~pattern ~allow_risky =
  compile_pattern t ~id pattern (fun c ->
      gate t ~id ~allow_risky c (fun c ->
          let binary_bytes = (Compile.stats c).Compile.binary_bytes in
          Protocol.Compiled
            { id;
              code_size = Compile.code_size c;
              binary_bytes;
              lint = List.map lint_diag c.Compile.lint }))

let observe_scan t ~histogram ~t0 (s : Protocol.scan_stats) =
  Metrics.observe t.metrics histogram (Unix.gettimeofday () -. t0);
  Metrics.inc t.metrics ~by:s.Protocol.attempts "scan/attempts";
  Metrics.inc t.metrics ~by:s.Protocol.offsets_pruned "scan/offsets-pruned";
  Metrics.inc t.metrics ~by:s.Protocol.offsets_scanned "scan/offsets-scanned"

let handle_scan t ~id ~pattern ~input ~allow_risky =
  check_input t ~id input (fun () ->
      compile_pattern t ~id pattern (fun c ->
          gate t ~id ~allow_risky c (fun c ->
              let t0 = Unix.gettimeofday () in
              (* a ruleset rule's scan, with the overlap window sized
                 from the pattern as a rule's is; a derivative-backed
                 pattern reports no DSA counters (the gate admitted it
                 as a matter of policy: that engine is worst-case
                 linear per start position) *)
              let r =
                Ruleset.scan_compiled ~cores:t.config.cores
                  ~overlap:(Multicore.overlap_for_ast c.Compile.ast) c input
              in
              let s : Protocol.scan_stats =
                { attempts = r.Ruleset.attempts;
                  offsets_scanned = r.Ruleset.offsets_scanned;
                  offsets_pruned = r.Ruleset.offsets_pruned;
                  cycles = r.Ruleset.wall_cycles }
              in
              observe_scan t ~histogram:"latency/scan" ~t0 s;
              Protocol.Matches
                { id;
                  spans =
                    List.map
                      (fun (sp : Alveare_engine.Semantics.span) ->
                        (sp.Alveare_engine.Semantics.start,
                         sp.Alveare_engine.Semantics.stop))
                      r.Ruleset.spans;
                  stats = s })))

(* Every field length-prefixed, so two rule lists share a key only if
   they are equal. *)
let ruleset_key rules =
  let b = Buffer.create 256 in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  List.iter (fun (tag, pattern) -> field tag; field pattern) rules;
  Buffer.contents b

(* Only successful builds are cached: a ruleset with a bad rule is
   compiled, and refused, on every request. *)
let build_ruleset t rules =
  let compile () =
    Ruleset.compile ~cache:t.config.cache ~workers:t.config.scan_workers
      ~extended:t.config.extended rules
  in
  if List.length rules > Cache.capacity t.config.cache / rulesets_cached then
    compile ()
  else
    let key = ruleset_key rules in
    match Cache.find_opt t.rulesets key with
    | Some rs -> Ok rs
    | None ->
      let built = compile () in
      Result.iter (Cache.add t.rulesets key) built;
      built

let handle_ruleset_scan t ~id ~rules ~input ~allow_risky =
  check_input t ~id input (fun () ->
      match build_ruleset t rules with
      | Error errs ->
        err t id Protocol.Parse_error
          (String.concat "; "
             (List.map
                (fun (e : Ruleset.compile_error) ->
                  Printf.sprintf "rule %S: %s" e.Ruleset.failed_rule.Ruleset.tag
                    e.Ruleset.reason)
                errs))
      | Ok rs ->
        let flagged =
          List.filter_map
            (fun ((r : Ruleset.rule), a) ->
              Option.map (fun ref -> (r, ref)) (refusal_of_analysis t a))
            (Ruleset.analysis_report rs)
        in
        if flagged <> [] && t.config.lint_gate && not allow_risky then begin
          List.iter (fun (_, (metric, _)) -> Metrics.inc t.metrics metric)
            flagged;
          err t id Protocol.Lint_rejected
            (String.concat "; "
               (List.map
                  (fun ((r : Ruleset.rule), (_, why)) ->
                    rejection_message
                      (r.Ruleset.tag ^ ": " ^ r.Ruleset.pattern) why)
                  flagged))
        end
        else begin
          let t0 = Unix.gettimeofday () in
          let report =
            Ruleset.scan ~cores:t.config.cores ~workers:t.config.scan_workers
              rs input
          in
          let s : Protocol.scan_stats =
            { attempts = report.Ruleset.total_attempts;
              offsets_scanned = report.Ruleset.total_offsets_scanned;
              offsets_pruned = report.Ruleset.total_offsets_pruned;
              cycles = report.Ruleset.total_wall_cycles }
          in
          observe_scan t ~histogram:"latency/ruleset-scan" ~t0 s;
          Protocol.Ruleset_matches
            { id;
              hits =
                List.map
                  (fun (h : Ruleset.hit) ->
                    ( h.Ruleset.hit_rule.Ruleset.id,
                      h.Ruleset.hit_rule.Ruleset.tag,
                      h.Ruleset.span.Alveare_engine.Semantics.start,
                      h.Ruleset.span.Alveare_engine.Semantics.stop ))
                  report.Ruleset.hits;
              stats = s }
        end)

let request_kind = function
  | Protocol.Health _ -> "health"
  | Protocol.Compile _ -> "compile"
  | Protocol.Scan _ -> "scan"
  | Protocol.Ruleset_scan _ -> "ruleset-scan"
  | Protocol.Stats _ -> "stats"

let handle t ?deadline req =
  let id = Protocol.request_id req in
  Metrics.inc t.metrics ("requests/" ^ request_kind req);
  let expired =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  if expired then
    err t id Protocol.Deadline_exceeded
      "deadline passed while the request waited for a worker"
  else
    try
      match req with
      | Protocol.Health { id } ->
        Protocol.Health_ok
          { id; version = advertised_version ~extended:t.config.extended }
      | Protocol.Compile { id; pattern; allow_risky } ->
        handle_compile t ~id ~pattern ~allow_risky
      | Protocol.Scan { id; pattern; input; allow_risky; deadline_ms = _ } ->
        handle_scan t ~id ~pattern ~input ~allow_risky
      | Protocol.Ruleset_scan { id; rules; input; allow_risky; deadline_ms = _ }
        ->
        handle_ruleset_scan t ~id ~rules ~input ~allow_risky
      | Protocol.Stats { id } ->
        Protocol.Stats_reply { id; entries = Metrics.snapshot t.metrics }
    with e ->
      err t id Protocol.Internal
        ("unexpected exception: " ^ Printexc.to_string e)
