(** Rule-set management — the DPI deployment unit: compile many tagged
    rules once, scan streams through all of them on the simulated DSA,
    and report per-rule hits and cycle costs. Every ISA rule scans with
    its compilation's plan and, wherever it can engage, its lazy-DFA
    overlay family; nothing switches the overlay off, since it never
    changes a report. *)

type rule = {
  id : int;
  tag : string;
  pattern : string;
}

type compiled_rule = {
  rule : rule;
  compiled : Compile.compiled;
  overlap : int;  (** multi-core boundary window for this rule *)
}

type t = {
  rules : compiled_rule array;
  fused : Combined.t;
      (** the one-pass engine over the same rules: classification,
          shared first-set dispatch table, and the Aho-Corasick index
          over the union of the rules' required literals (see
          {!Combined}); built once here, swept by every prefiltered
          {!scan}, at any core count *)
}

type compile_error = {
  failed_rule : rule;
  reason : string;
}

val compile :
  ?options:Alveare_ir.Lower.options ->
  ?cache:Compile.cache ->
  ?workers:int ->
  ?extended:bool ->
  (string * string) list ->
  (t, compile_error list) result
(** [(tag, pattern)] pairs; reports EVERY ill-formed rule, once per
    rule listing its pattern, in rule order. Each distinct pattern is
    looked up once in {!Compile.cached} (default: the shared
    {!Compile.default_cache}), and every rule listing it gets that same
    physical compilation and multi-core overlap — which is what makes
    {!scan} scan it once; [workers] fans the distinct compilations out
    over host domains. [rules] still holds one entry per rule, with its
    own id and tag. [extended] (default false) parses the extended
    dialect — rules the mid-end cannot rewrite for the ISA scan on the
    host derivative engine (hits identical in {!scan}; no modelled DSA
    cycles). *)

val compile_exn :
  ?options:Alveare_ir.Lower.options ->
  ?cache:Compile.cache ->
  ?workers:int ->
  ?extended:bool ->
  (string * string) list ->
  t

val lint_report : t -> (rule * Alveare_analysis.Lint.diagnostic list) list
(** Rules with at least one lint diagnostic (ReDoS heuristics, repeat
    blowup, …), in rule order. Compilation never fails on lint; this
    is how a ruleset build surfaces its suspect rules. *)

val analysis_report : t -> (rule * Alveare_analysis.Ambiguity.t) list
(** Every rule with its precise worst-case backtracking verdict, in
    rule order — the input an admission gate filters on. *)

val size : t -> int
val rules : t -> rule list
val find_rule : t -> int -> rule option

type hit = {
  hit_rule : rule;
  span : Alveare_engine.Semantics.span;
}

type report = {
  hits : hit list;
  total_wall_cycles : int;
  seconds : float;  (** modelled DSA time including per-rule dispatch *)
  per_rule_cycles : (int * int) list;
  total_attempts : int;         (** matching attempts started, all rules *)
  total_offsets_scanned : int;  (** offsets considered, all rules *)
  total_offsets_pruned : int;   (** offsets rejected without an attempt *)
  prefiltered_rules : int;
      (** rules scanned via the Aho-Corasick candidate path this scan *)
}

(** What one pattern's scan contributes to a report. *)
type rule_scan = {
  wall_cycles : int;  (** modelled DSA wall cycles: the slowest core's *)
  spans : Alveare_engine.Semantics.span list;
  attempts : int;         (** summed over cores, as the three below *)
  offsets_scanned : int;
  offsets_pruned : int;
  via_ac : bool;  (** attempted only at Aho-Corasick candidates *)
}

val scan_compiled :
  ?workers:int -> ?cores:int -> ?candidates:int array -> ?prefilter:bool ->
  overlap:int -> Compile.compiled -> string -> rule_scan
(** One pattern scanned as {!scan} scans a rule after its sweep; the
    daemon's [Scan] and the façade's [find_all] call it too, with the
    pattern's own window
    ({!Alveare_multicore.Multicore.overlap_for_ast}). An ISA pattern is
    one {!Alveare_multicore.Multicore.run} on [cores] (default 1) with
    the [overlap] window and the compilation's plan and overlay family.
    It attempts at the sorted start offsets [candidates] when given;
    otherwise at every offset the first-set prefilter admits, or every
    offset with [prefilter:false]. [workers] parallelises the simulated
    cores on host domains, with identical results. A derivative-backed
    pattern runs on the host derivative engine: spans only, every
    counter 0. *)

val scan :
  ?cores:int -> ?workers:int -> ?prefilter:bool -> t -> string -> report
(** Rules run sequentially on the DSA (one compiled RE in instruction
    memory at a time); [cores] (default 1; [Invalid_argument] below 1)
    parallelises each rule over the stream on the simulated hardware:
    every rule's scan after the sweep is one {!scan_compiled} with the
    rule's [overlap] window, at any core count. [workers] parallelises
    the host-side simulation of the independent per-rule runs
    ({!Alveare_exec.Pool});
    the report — hits, per-rule cycles, modelled seconds — is identical
    to the sequential scan for any value.

    The host scans each distinct pattern once, however many rules list
    it ({!Combined.representative}), and gives every such rule the
    group's spans, cycles and counters under its own id and tag. The
    report is still the rule-by-rule one: the modelled DSA loads and
    runs every rule, so hits, cycles, seconds (one dispatch per rule),
    per-rule cycles, attempt and offset totals and [prefiltered_rules]
    count every rule.

    [prefilter] (default [true]): the scan runs one fused {!Combined}
    sweep over the input, at every core count, and rules covered by
    the literal index attempt only at the candidate offsets its
    automaton walk collects; at [cores > 1] every core attempts at the
    candidates inside its region. A single-core sweep also walks the
    merged first-set dispatch table and scans those rules in the same
    pass; at [cores > 1] they scan with their first-set prefilter
    after it, on the simulated cores. The sweep runs on the calling
    domain. Hits are identical with prefiltering on or off — only
    attempts/cycles change. The report is bit-identical to a rule-by-rule
    scan; the fused-sweep differential battery pins this against the
    per-rule reference in the test support library.

    Rules whose compilation carries a lazy-DFA overlay family execute
    their backtracking-free fragments on the transition table
    ({!Alveare_arch.Dfa_overlay}) whenever it can engage; hits, cycles
    and every stat are those of the plan path. *)

val hits_for : report -> int -> hit list
