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

    Concurrency: transition tables are not shared between domains. A
    {!family} is the shareable description (plan + fragment mask +
    budget, and its counter totals), and each domain lazily
    materializes its own instance via {!get}. Within a domain,
    concurrent sys-threads (the server) are excluded by a per-instance
    try-lock with a plan-path fallback, so {!acquire} never blocks. An
    instance counts in plain fields during a session; {!release} adds
    the counts to the family's and the process's atomic totals, so the
    totals depend only on the work done, never on when the GC runs. *)

type t
(** A per-domain overlay instance: the lazily built transition table
    plus its open session's cache counters. Obtain via {!get}; do not
    share across domains. *)

type family
(** The domain-shareable identity of an overlay: source plan, safe
    fragments, state budget, and the counter totals of every ended
    session of its instances. One per compiled pattern. *)

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
    missing cell is built from one byte of its class. Nothing registers
    the family: an unreachable family is collected like any value, and
    its counts stay in {!global_stats}. *)

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
    domain: past that the least recently used one is dropped. Each
    session's counts reach the totals at {!release}, so nothing runs
    when a dropped instance is collected. *)

(** {1 Sessions}

    A scan runs one attempt per candidate offset; taking the instance
    lock per attempt would cost more than the table saves on short
    attempts. [acquire] takes it once for the whole scan, and attempts
    run on the table only inside such a session. Every plan-path scan,
    the fused ruleset sweep's included, holds its session through
    {!Scan_cursor}. *)

val acquire : t -> config:Machine.config -> bool
(** Try to reserve the table for a scan. [false] — leaving the caller
    on the plan path — when the config has a finite [stack_capacity]
    (overflow must raise the plan path's exact error), or when another
    caller of this domain holds the instance: another sys-thread, or a
    session the calling thread still has open. Results are identical
    either way, so never wait; the second refusal is added to the
    [refused] totals at once. *)

val release : t -> unit
(** End a successful {!acquire}: add the session's counts to the
    family's and the process's totals, and unlock. *)

val run_acquired :
  t -> config:Machine.config -> stats:Machine.stats ->
  Plan.scratch -> string -> int -> int option
(** [run_acquired t ~config ~stats scratch input start]: one full
    matching attempt anchored at [start], inside a session the caller
    holds via {!acquire} — drop-in for {!Plan.run} with identical
    results, stats and exceptions. Executes on the transition table
    when possible and falls back to {!Plan.run} (using [scratch])
    otherwise. An attempt served by the table allocates nothing but
    the [Some] of a match; [config] is required so that the call does
    not box it. *)

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

val stats_of : t -> cache_stats
(** The counts of the instance's open session so far (all zero between
    sessions; [refused] is always 0, refusals go to the totals). Read
    it from the thread that holds the session. *)

val family_stats : family -> cache_stats
(** The family's totals: the sum over every ended session of its
    instances on any domain, plus its refusals. Monotone; a session
    still open is not in it yet. *)

val global_stats : unit -> cache_stats
(** The process's totals, the same sum over every family ever scanned,
    collected ones included (server gauges). Monotone. *)
