(** Incremental scan cursor: the one copy of the plan path's scan-loop
    body (paper §6: finish one attempt, then restart from the backup
    register at the next candidate offset).

    A cursor carries one scan's position, its pending run of rejected
    offsets and its matches. The caller drives it with candidate start
    offsets in ascending order, from any source: {!Core}'s prefilter
    and dense skip loops, an Aho-Corasick candidate array, or the fused
    ruleset sweep's first-set dispatch. Per offered candidate the cursor
    charges the rejected run before it (ceil(run / compute_units) scan
    cycles), tests the plan's leading filter, attempts, and records a
    match; every stats counter lands exactly as in a sequential scan
    that had queried the same candidates.

    Attempts run on the lazy-DFA overlay ({!Dfa_overlay}) when the
    cursor holds a session on it, and on {!Plan.run} otherwise. The
    session is taken once at {!start} and held until {!finish} or
    {!release}. A traced cursor records every charged rejected run as a
    [Scan_skip] event and every attempt's per-cycle events. *)

type t

val start :
  ?trace:Trace.t -> dfa:Dfa_overlay.family option -> config:Machine.config ->
  stats:Machine.stats -> all:bool -> Plan.t -> Plan.scratch -> string ->
  int -> t
(** [start ?trace ~dfa ~config ~stats ~all plan scratch input from]
    opens a scan of [input] at offset [from]. With [all] the scan
    collects every non-overlapping match; without it the scan ends at
    the first match. The overlay is engaged only for an untraced scan,
    a family built from this very [plan] (physical equality) and a free
    calling-domain instance ({!Dfa_overlay.acquire}); otherwise attempts
    run on {!Plan.run}, with identical spans and stats. *)

val offer : t -> int -> int
(** [offer c cand] delivers the next candidate start and returns the
    scan's new position: the smallest offset it has not yet accounted
    for, greater than [String.length input] once the scan is complete.
    A candidate below that position is ignored (an earlier match or
    attempt already covered it). Otherwise the offsets between the
    position and [cand] count as pruned, and [cand] is filtered,
    attempted and recorded. *)

val finish : t -> Alveare_engine.Semantics.span list
(** End the scan: the offsets from its position to the end of the input
    count as pruned, the pending run is charged, the overlay session is
    released, and the matches are returned left to right. *)

val release : t -> unit
(** Release the overlay session, if still held. Idempotent; call it when
    the scan is abandoned, e.g. on an exception. *)

val session : t -> Dfa_overlay.t option
(** The overlay instance the cursor holds, if any. *)
