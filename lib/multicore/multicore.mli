(** Multi-core scale-out (paper §6): N independent cores with private
    memories scan slices of the stream for the same compiled RE. Matches
    are attributed to the core owning their start offset; each core scans
    [overlap] bytes past its slice so boundary matches complete. The
    divide-and-conquer approximates a one-core scan in two ways:
    - a match longer than the overlap window can straddle slices and be
      truncated; size the window from the pattern with
      {!overlap_for_ast};
    - each core restarts its scan at its own slice start, so it can
      keep a match that starts inside a span an earlier core already
      reported: at [cores > 1] the matches can overlap. [([^A-Z])+]
      over [GET /index.html user=root aaab 12345] gives [3-36] on one
      core and [3-36], [9-36], [18-36], [27-36] on four.
    {!run} is the one place that cuts an input into core regions, at
    every core count. *)

module Core = Alveare_arch.Core
module Span = Alveare_engine.Semantics

type config = {
  cores : int;
  overlap : int;
}
(** Every core scans with {!Core.default_config}. *)

val default_overlap : int

val config : ?cores:int -> ?overlap:int -> unit -> config

val overlap_for_ast : ?cap:int -> Alveare_frontend.Ast.t -> int
(** Overlap window from the pattern's bounded match length, or [cap]. *)

type core_result = {
  owned : Span.span list;
  stats : Core.stats;
  slice_start : int;
  slice_stop : int;
}

type result = {
  matches : Span.span list;
      (** sorted, exact duplicates removed; at [cores > 1] two matches
          can overlap (see the module header) *)
  cycles : int;               (** wall-clock = max over cores *)
  totals : Core.stats;
      (** every counter summed over cores, except [max_stack_depth]:
          the deepest core's *)
  per_core : core_result array;
}

val run :
  ?workers:int -> ?prefilter:Alveare_prefilter.Prefilter.t ->
  ?candidates:int array ->
  ?plan:Alveare_arch.Plan.t -> ?dfa:Alveare_arch.Dfa_overlay.family ->
  config:config ->
  Alveare_isa.Program.t -> string -> result
(** [workers] parallelises the per-core simulations on host domains
    (via {!Alveare_exec.Pool}); results are identical to the sequential
    run for any value. Default 1 = sequential. [prefilter] applies the
    first-set skip loop inside every core's slice scan (sound: the test
    is per-byte and position-independent); matches are unchanged.
    [candidates] are sorted global start offsets (e.g. a ruleset's
    Aho-Corasick candidates): each core attempts only at those inside
    its region, rebased, through {!Alveare_arch.Core.find_all_candidates};
    the matches equal the unrestricted scan's whenever the array holds
    every true match start. Giving both [prefilter] and [candidates]
    raises [Invalid_argument].
    [plan] supplies a pre-decoded execution plan (e.g. from
    {!Alveare_compiler}'s [compiled.plan]); without one, the program is
    checked and lowered once per [run], never per slice. Plans are
    immutable and shared across worker domains. [dfa] engages the
    lazy-DFA overlay inside every slice scan (must match [plan], as in
    {!Alveare_arch.Core}); the family is domain-shareable — each worker
    domain lazily materializes its own transition table.

    A one-core run scans the input in place, with no copy, filter or
    pool task: its matches, [cycles] and stats are those of the direct
    {!Alveare_arch.Core} call, and [totals] is that core's own stats
    record. *)

val find_all :
  ?cores:int -> ?overlap:int -> ?workers:int ->
  ?prefilter:Alveare_prefilter.Prefilter.t -> ?plan:Alveare_arch.Plan.t ->
  ?dfa:Alveare_arch.Dfa_overlay.family ->
  Alveare_isa.Program.t -> string -> Span.span list
