(** The ALVEARE prototype: multicore cycle simulation at 300 MHz plus the
    per-RE PYNQ dispatch overhead (the constant that caps PowerEN scaling
    at ~3x in §7.2). Refuses core counts beyond {!Area.max_cores}. *)

type outcome = {
  run : Measure.run;
  wall_cycles : int;
  result : Alveare_multicore.Multicore.result;
}

val run :
  ?full_bytes:int ->
  ?cores:int ->
  ?overlap:int ->
  ?prefilter:Alveare_prefilter.Prefilter.t ->
  ?plan:Alveare_arch.Plan.t ->
  ?dfa:Alveare_arch.Dfa_overlay.family ->
  Alveare_isa.Program.t ->
  string ->
  outcome
(** [plan]/[dfa] as in {!Alveare_multicore.Multicore.run}: a pre-built
    execution plan and its lazy-DFA overlay family (host simulation
    speed only — modelled cycles and matches are unchanged). *)
