(* Types of the cycle-level core model, below both Plan (which charges
   and raises them) and Core (which re-exports them): every executor
   path — plan, lazy-DFA overlay, fused sweep — charges the same
   cycle/stat accounting against the same record. *)

type config = {
  compute_units : int;        (* CUs in the vector unit (paper: 4) *)
  stack_capacity : int option; (* None = unbounded speculation stack *)
}

let default_config = { compute_units = 4; stack_capacity = None }

type stats = {
  mutable cycles : int;          (* total: instructions + rollbacks + scan *)
  mutable instructions : int;    (* instructions executed *)
  mutable rollbacks : int;       (* speculation-stack pops on mismatch *)
  mutable stack_pushes : int;
  mutable max_stack_depth : int;
  mutable scan_cycles : int;     (* vector-unit start-offset pruning *)
  mutable attempts : int;        (* full matching attempts started *)
  mutable offsets_scanned : int;
  mutable offsets_pruned : int;  (* offsets rejected without an attempt *)
  mutable match_count : int;
}

let fresh_stats () =
  { cycles = 0; instructions = 0; rollbacks = 0; stack_pushes = 0;
    max_stack_depth = 0; scan_cycles = 0; attempts = 0; offsets_scanned = 0;
    offsets_pruned = 0; match_count = 0 }

type error =
  | Stack_overflow of int
  | Malformed of { pc : int; reason : string }

let error_message = function
  | Stack_overflow cap ->
    Printf.sprintf "speculation stack overflow (capacity %d)" cap
  | Malformed { pc; reason } ->
    Printf.sprintf "malformed execution at pc %d: %s" pc reason

exception Exec_error of error
