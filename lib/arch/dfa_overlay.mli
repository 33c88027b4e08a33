(** Lazy-DFA overlay for the plan executor.

    On-the-fly determinization cache over {!Plan} ops: the
    backtracking-free fragments of a program (proven by the ambiguity
    analysis, [Compile.compiled.safe_fragments]) execute at one
    transition-table lookup per input byte, falling back to
    {!Plan.run}'s speculative execution whenever exact table execution
    is impossible — an op outside the safe fragments, a stale
    speculation snapshot that would actually consume (real
    backtracking), a malformed op, or an arena overflow.

    The overlay is {e bit-identical} to the plan path: same match
    spans and the same increments to every per-attempt stats counter
    (attempts, instructions, cycles, rollbacks, stack_pushes,
    max_stack_depth). Scan-level counters stay with the caller's scan
    loop, which is unchanged. A bail leaves the stats untouched and
    re-runs the whole attempt on {!Plan.run}, so error behaviour
    (Malformed, Stack_overflow) is also exact; configurations with a
    finite [stack_capacity] bypass the table entirely.

    States and transitions live in a bounded arena. On overflow the
    whole cache is flushed and rebuilt lazily — never wrong, only
    slower — so an artificially tiny budget degrades gracefully.

    Transition tables are not shared between domains: a {!family} is
    the shareable, immutable description (plan + fragment mask +
    budget), and each domain lazily materializes its own instance via
    {!get}. Within a domain, concurrent sys-threads (the server) are
    excluded by a per-instance try-lock with a plan-path fallback, so
    {!run} never blocks. *)

type t
(** A per-domain overlay instance: the lazily built transition table
    plus its cache counters. Obtain via {!get}; do not share across
    domains. *)

type family
(** The domain-shareable identity of an overlay: source plan, safe
    fragments, state budget, and the aggregate counters of all
    instances (live and collected). One per compiled pattern. *)

val family :
  ?max_states:int -> fragments:(int * int) list -> Plan.t -> family option
(** [family ~fragments plan] prepares an overlay for [plan] restricted
    to the backtracking-free address intervals [fragments] (from
    {!Alveare_analysis.Ambiguity.program_fragments}). Returns [None]
    when the fragments are trivial — in particular when they do not
    cover the entry op, in which case every attempt would bail
    immediately. [max_states] bounds the per-instance state arena
    (default 512); built cells are bounded at 32x that.

    The family computes the plan's {!byte_classes} once; every state's
    row then has one cell per class plus one for end of input, and a
    missing cell is built from one byte of its class. Registering the
    family (for {!global_stats}) is amortised O(1). *)

val byte_classes : Plan.t -> string * string
(** The partition of the 256 bytes that the family's rows are indexed
    by: every byte of a [Lit] op is a class of its own, and every
    distinct [Set] bitmap splits the classes it cuts — the coarsest
    partition no op of the plan tells apart, so bytes of one class build
    the same transition. [(cls, reps)] as in
    {!Alveare_frontend.Charset.byte_classes}. *)

val plan_of : family -> Plan.t
(** The plan the family executes (also the bail fallback target). *)

val get : family -> t
(** The calling domain's instance of [family], created on first use.
    Instances are cached in domain-local storage, at most 128 per
    domain: past that the least recently used one is dropped. Their
    counters are folded into the family totals by a GC finalizer. *)

val run :
  t -> ?config:Machine.config -> stats:Machine.stats ->
  Plan.scratch -> string -> int -> int option
(** [run t ~stats scratch input start]: one full matching attempt
    anchored at [start] — drop-in for {!Plan.run} with identical
    results, stats and exceptions. Executes on the transition table
    when possible and falls back to {!Plan.run} (using [scratch])
    otherwise. Takes and releases the instance lock; scan loops
    should hoist that with {!acquire}/{!run_acquired}/{!release}. *)

(** {1 Scan-level sessions}

    A scan runs one attempt per candidate offset; taking the instance
    lock per attempt would cost more than the table saves on short
    attempts. [acquire] takes it once for the whole scan. Every
    plan-path scan, the fused ruleset sweep's included, holds its
    session through {!Scan_cursor}. *)

val acquire : t -> config:Machine.config -> bool
(** Try to reserve the table for a scan. [false] — leaving the caller
    on the plan path — when the config has a finite [stack_capacity]
    (overflow must raise the plan path's exact error), or when another
    caller of this domain holds the instance: another sys-thread, or a
    session the calling thread still has open. Results are identical
    either way, so never wait; the second refusal is counted in
    [cache_stats.refused]. *)

val release : t -> unit
(** End a successful {!acquire}. *)

val run_acquired :
  t -> config:Machine.config -> stats:Machine.stats ->
  Plan.scratch -> string -> int -> int option
(** {!run} without the locking: caller holds the instance via
    {!acquire}. Falls back to {!Plan.run} internally on a bail. An
    attempt served by the table allocates nothing but the [Some] of a
    match; [config] is required so that the call does not box it. *)

(** {1 Cache observability} *)

type cache_stats = {
  states_built : int;
  transitions_built : int;
      (** row cells built: one per (state, byte class) or (state, end of
          input) reached, not one per byte value *)
  hits : int;          (** transition lookups served from the table *)
  misses : int;
      (** lookups that had to build their cell; [hits + misses] is one
          per byte (or end of input) an attempt read on the table *)
  flushes : int;       (** whole-cache resets on arena overflow *)
  bails : int;         (** attempts handed back to {!Plan.run} *)
  dfa_attempts : int;  (** attempts completed entirely on the table *)
  refused : int;
      (** {!acquire}s refused because another caller of the domain held
          the instance (the finite-[stack_capacity] refusal, which is
          by design, is not counted) *)
}

val zero_stats : cache_stats
val add_stats : cache_stats -> cache_stats -> cache_stats

val stats_of : t -> cache_stats
(** Counters of one instance. *)

val family_stats : family -> cache_stats
(** Aggregate over the family's instances, live and collected. Reads
    of live instances on other domains are racy (metrics-grade). *)

val global_stats : unit -> cache_stats
(** Aggregate over every live family in the process (server gauges). *)
