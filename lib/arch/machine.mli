(** Execution-model types of the cycle-level core: the configuration,
    the ten stats counters and the execution errors that the plan
    executor ({!Plan}) charges and raises. {!Core} re-exports all of
    them with type equations, so [Core.stats]/[Core.config] users need
    not name this module. *)

type config = {
  compute_units : int;          (** CUs in the vector unit (paper: 4) *)
  stack_capacity : int option;  (** [None] = unbounded speculation stack *)
}

val default_config : config

type stats = {
  mutable cycles : int;        (** instructions + rollbacks + scan pruning *)
  mutable instructions : int;
  mutable rollbacks : int;
  mutable stack_pushes : int;
  mutable max_stack_depth : int;
  mutable scan_cycles : int;   (** vector-unit start-offset pruning cycles *)
  mutable attempts : int;
  mutable offsets_scanned : int;
  mutable offsets_pruned : int;
  mutable match_count : int;
}

val fresh_stats : unit -> stats

type error =
  | Stack_overflow of int
  | Malformed of { pc : int; reason : string }

val error_message : error -> string

exception Exec_error of error
