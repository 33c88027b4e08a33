(** Fused one-pass ruleset engine (single-pass multi-pattern scan).

    Compiles a whole ruleset's scan-side machinery into one shared
    sweep: the Aho-Corasick literal automaton and every non-covered
    rule's first-set dispatch run over the input ONCE. Rules sharing
    one compilation form a group ({!representative}) whose work is
    done once: each dispatched group drives one
    {!Alveare_arch.Scan_cursor} — the scan-loop body
    {!Alveare_arch.Core} uses — which attempts every first-set
    candidate at once, on the group's lazy-DFA overlay session whenever
    the compilation has a family and the session can be taken, and
    each covered group fills one candidate bucket. Spans and every
    per-rule stats counter are bit-identical to a per-rule scan; the
    fused-sweep differential battery pins this against the per-rule
    reference in the test support library.

    This module is the scan engine only: {!Ruleset} owns rule
    metadata, classification inputs (the AC index), the post-sweep
    candidate attempts, and the residual per-rule arms. A multi-core
    ruleset scan runs the same pass, for its candidate buckets only
    (see {!scan}'s [cores]). *)

type t
(** The fused engine for one ruleset: per-rule classification, the
    256-entry shared dispatch table merged from the rules' first
    bitmaps, and the literal index. Built once at
    {!Ruleset.compile} time; immutable and domain-shareable. *)

val build :
  rules:Compile.compiled array ->
  ac:
    (Alveare_prefilter.Ac.t * (int * int) array * bool array) option ->
  t
(** [build ~rules ~ac] classifies each rule and merges the dispatch
    table. [ac] is the ruleset's literal index — the automaton, the
    pattern-to-(rule, literal offset) references, and the per-rule
    covered flags — or [None] when no rule has usable literals. A
    reference to a later rule of a group counts for the group's first
    rule. *)

val representative : t -> int -> int
(** [representative t i]: the first rule of rule [i]'s group — the
    lowest index whose compilation is physically the same value as rule
    [i]'s; [i] itself for a group's first rule. The one definition of
    the grouping. *)

(** Per-rule result of one fused sweep. *)
type outcome =
  | Scanned of Alveare_arch.Core.stats * Alveare_engine.Semantics.span list
      (** scanned in-sweep (first-set dispatch): exactly the stats and
          spans the per-rule scan would have produced *)
  | Candidates of int array
      (** AC-covered: sorted candidate start offsets, identical to the
          per-rule bucketing; the caller attempts post-sweep *)
  | Residual
      (** untouched: nullable / no-first-set / derivative rules stay
          on the caller's per-rule path *)

val scan : ?cores:int -> t -> string -> outcome array
(** One streaming pass over the input; one outcome per rule, in rule
    order. Every rule of a group gets its group's outcome (a [Scanned]
    one with its own stats record), which is the outcome a scan of that
    rule alone would give. A first-set group attempts on its overlay
    session when its compilation carries a family and the calling
    domain's instance is free, and on {!Alveare_arch.Plan.run}
    otherwise, with identical results. Runs entirely on the calling
    domain.

    [cores] (default 1) is the core count of the scan the outcomes
    feed. At [cores > 1] every rule's attempts run on the simulated
    cores, so the pass opens no cursor and dispatches nothing:
    first-set groups come back [Residual], and the pass only walks the
    literal automaton for the [Candidates] of covered groups. *)

(** {1 Scan counters}

    Process-wide monotone counters over all fused scans, exported as
    [ruleset/*] server gauges. The [product_*] fields keep the names of
    the sweep's former per-byte overlay threads; they now count the
    sweep's work on overlay sessions. *)

type counters = {
  onepass_scans : int;        (** fused sweeps run, at any core count *)
  shared_pass_bytes : int;    (** input bytes swept, at any core count *)
  dispatch_candidates : int;
      (** first-set dispatch deliveries, one per group and position
          (single-core sweeps only) *)
  ac_candidates : int;
      (** candidate bucket entries collected, at any core count *)
  product_rules : int;
      (** first-set groups that held an overlay session in a sweep *)
  product_threads : int;      (** sweep attempts run on an overlay session *)
  product_states : int;
      (** overlay states those sessions built during sweeps *)
}

val counters : unit -> counters
