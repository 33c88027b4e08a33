(* The ALVEARE prototype itself: the cycle-level core/multicore simulator
   converted to wall-clock seconds at the paper's 300 MHz, plus the
   per-job PYNQ host-dispatch overhead (§7.2 measures matching time after
   memory loading, but each RE is still one offloaded invocation; this
   fixed cost is what limits scaling on the short-running PowerEN REs to
   the ~3x the paper reports). *)

module Multicore = Alveare_multicore.Multicore

type outcome = {
  run : Measure.run;
  wall_cycles : int;
  result : Multicore.result;
}

let run ?full_bytes ?(cores = 1) ?(overlap = Multicore.default_overlap)
    ?prefilter ?plan ?dfa (program : Alveare_isa.Program.t) (input : string)
  : outcome =
  if cores > Area.max_cores () then
    invalid_arg
      (Printf.sprintf "Alveare_fpga.run: %d cores do not fit the XCZU3EG (max %d)"
         cores (Area.max_cores ()));
  let mc =
    Multicore.run ?prefilter ?plan ?dfa
      ~config:(Multicore.config ~cores ~overlap ())
      program input
  in
  let k = Measure.scale ~sample_bytes:(max 1 (String.length input)) ~full_bytes in
  let matching =
    k *. float_of_int mc.Multicore.cycles /. Calibration.alveare_clock_hz
  in
  { run =
      Measure.make
        ~match_count:(List.length mc.Multicore.matches)
        [ ("dispatch", Calibration.alveare_job_overhead_s);
          ("matching", matching) ];
    wall_cycles = mc.Multicore.cycles;
    result = mc }
