(** Request broker: the pure-ish middle of the serving stack. Maps one
    decoded {!Protocol.request} to one {!Protocol.response}, routing
    compiles through the shared {!Alveare_compiler.Compile.cached} LRU,
    running the precise admission gate on submitted patterns (patterns
    with proven-exploitable backtracking are refused with
    [Lint_rejected] unless the client sets [allow_risky]), and
    dispatching ruleset scans over the {!Alveare_exec.Pool} host
    domains. A ruleset-scan request whose rule list (tags and patterns,
    in order) was built before reuses that build from a small LRU of
    built rulesets, so a standing ruleset costs only its scan; the
    admission gate still runs on every request. Scans run each compilation's plan with its lazy-DFA
    overlay family wherever the overlay can engage; responses are those
    of the plan path, so no setting turns it off. No sockets, no
    threads of its own — the {!Server} accept loop calls {!handle} from
    its worker threads, and tests call it directly. *)

type config = {
  cache : Alveare_compiler.Compile.cache;
      (** compiled-pattern LRU shared by every request *)
  scan_workers : int;
      (** host domains for per-rule ruleset scan fan-out (1 = in-line) *)
  cores : int;
      (** simulated DSA cores per scan, at least 1. Each [Scan] is one
          {!Alveare_multicore.Multicore.run} whose overlap window comes
          from the pattern ({!Alveare_multicore.Multicore.overlap_for_ast},
          as a ruleset rule's), and its reply's [cycles] are the wall
          cycles: the slowest core's. *)
  lint_gate : bool;
      (** admission gate master switch: when on, refuse patterns the
          precise analysis proves [Exponential] (and [Polynomial]
          beyond [max_polynomial_degree], if set) unless the request
          opts in with [allow_risky]; heuristic lint diagnostics are
          advisory and never gate on their own. Rejections increment
          [gate/rejected-exponential] / [gate/rejected-polynomial]. *)
  max_polynomial_degree : int option;
      (** when [Some k], also refuse patterns with proven polynomial
          backtracking of degree [>= k] (attempt cost n^(k+1));
          [None] (default) admits every polynomial pattern *)
  max_input : int;  (** inputs longer than this are [Too_large] *)
  extended : bool;
      (** accept the extended pattern dialect (intersection [&],
          complement [(?~r)], lookarounds). Extended patterns the
          mid-end cannot rewrite for the ISA are served by the
          derivative engine; they pass the admission gate by policy —
          the derivative engine is worst-case linear per start
          position, so there is no backtracking blowup to refuse (their
          precise analysis reports
          [extended-operator-unanalyzed]/[Linear]). The wire protocol
          is unchanged; capability is advertised via the [Health]
          version suffix [+extended]. *)
}

val default_config : config
(** Shared default cache, 1 worker, 1 core, gate on (exponential only,
    [max_polynomial_degree = None]), 16 MiB input cap, extended dialect
    off. *)

type t

val create : ?config:config -> Metrics.t -> t
(** Raises [Invalid_argument] when [config.cores < 1]. Registers the
    serving callback gauges on the given registry:
    [exec/pool-queue-depth] ({!Alveare_exec.Pool.queue_depth}), the
    compile-cache gauges ([cache/size], [cache/hits], [cache/misses],
    [cache/evictions], [cache/hit-rate]), the built-ruleset cache
    gauges ([ruleset-cache/size], [ruleset-cache/hits],
    [ruleset-cache/misses], [ruleset-cache/evictions]: at most 8
    rulesets, each of at most an eighth of the compile cache's capacity
    in rules; larger ones are built per request and never counted), the
    lazy-DFA overlay cache gauges ([dfa/states-built],
    [dfa/transitions-built], [dfa/hits], [dfa/misses], [dfa/flushes],
    [dfa/bails], [dfa/attempts], [dfa/refused] — process totals over
    every pattern family ever scanned, not just the live ones, from
    {!Alveare_arch.Dfa_overlay.global_stats}; they never fall), plus
    the fused one-pass ruleset scan gauges ([ruleset/onepass-scans],
    [ruleset/shared-pass-bytes], [ruleset/dispatch-candidates],
    [ruleset/ac-candidates], [ruleset/product-rules],
    [ruleset/product-threads], [ruleset/product-states] — from
    {!Alveare_compiler.Combined.counters}). *)

val config : t -> config
val metrics : t -> Metrics.t

val handle : t -> ?deadline:float -> Protocol.request -> Protocol.response
(** One request, synchronously. [deadline] is an absolute
    [Unix.gettimeofday] instant fixed at admission time; a request whose
    deadline has passed when work would start is answered
    [Deadline_exceeded] without scanning (scans themselves are not
    preempted — the deadline bounds queue wait, the admission queue
    bounds scan backlog). Never raises: unexpected exceptions become
    [Internal] error responses. Updates the metrics registry (request /
    error counters by type, scan latency histograms, attempt and
    pruning counters). *)

val version : string
(** Protocol/server version string reported by [Health]. *)

val advertised_version : extended:bool -> string
(** The [Health] version string for a given capability set: [version]
    with the [+extended] suffix when the extended dialect is on. *)
