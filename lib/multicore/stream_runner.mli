(** Streaming through the two-level data memory (paper §6 (A)): streams
    longer than the on-chip buffer are processed chunk by chunk with an
    overlap carry, double-buffering the DMA fill against matching.
    Compute and load cycles are reported separately (the paper's KPI
    excludes loading). *)

type config = {
  buffer_bytes : int;
  overlap : int;
  cores : int;
  load_bytes_per_cycle : float;
}
(** Every core scans with {!Alveare_arch.Core.default_config}. *)

val default_buffer_bytes : int
(** 64 KiB — the BRAM-budget-sized local buffer. *)

val default_load_bytes_per_cycle : float
(** 8.0 bytes/cycle (~2.4 GB/s AXI at 300 MHz; mirrored by
    [Calibration.alveare_load_bytes_per_cycle]). *)

val config :
  ?buffer_bytes:int ->
  ?overlap:int ->
  ?cores:int ->
  ?load_bytes_per_cycle:float ->
  unit ->
  config

type result = {
  matches : Alveare_engine.Semantics.span list;
  chunks : int;
  compute_cycles : int;
  load_cycles : int;
  wall_cycles : int;  (** first fill + per-chunk max(compute, next fill) *)
}

val run :
  ?workers:int -> ?plan:Alveare_arch.Plan.t ->
  ?dfa:Alveare_arch.Dfa_overlay.family -> config:config ->
  Alveare_isa.Program.t -> string -> result
(** [workers] fans the per-chunk compute out over host domains (via
    {!Alveare_exec.Pool}); the double-buffered cycle accounting is folded
    sequentially over the in-order chunk results, so matches and every
    cycle count are identical to the sequential run for any value.
    Default 1 = sequential. [plan] as in {!Multicore.run}: without one,
    the program is checked and lowered once per stream, never per
    chunk. [dfa] as in {!Multicore.run}; the family's transition table
    persists across chunk refills, so a resumed stream keeps the states
    earlier chunks already built. *)

val find_all :
  ?buffer_bytes:int -> ?overlap:int -> ?cores:int -> ?workers:int ->
  ?plan:Alveare_arch.Plan.t -> ?dfa:Alveare_arch.Dfa_overlay.family ->
  Alveare_isa.Program.t -> string -> Alveare_engine.Semantics.span list
