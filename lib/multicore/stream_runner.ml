(* Streaming through the two-level data memory (paper §6 (A)): the
   on-chip local buffer holds one data chunk at a time and continuously
   feeds the execution core, so a stream longer than the buffer is
   processed chunk by chunk. Each chunk carries [overlap] bytes of the
   previous one so matches crossing a refill boundary complete (bounded
   by the window, as in the multi-core split).

   Cycle accounting models double buffering: while the cores match chunk
   k, the DMA fills the buffer with chunk k+1 at
   [Calibration.alveare_load_bytes_per_cycle]; a chunk therefore costs
   max(compute, next-load), after paying the first fill up front. The
   paper's KPI excludes loading ("matching time after memories
   loading"), so compute and load cycles are also reported separately. *)

module Core = Alveare_arch.Core
module Span = Alveare_engine.Semantics

type config = {
  buffer_bytes : int;   (* on-chip chunk capacity *)
  overlap : int;        (* carry-over window across refills *)
  cores : int;
  load_bytes_per_cycle : float; (* DMA fill rate *)
}

let default_buffer_bytes = 64 * 1024

(* Same figure as Calibration.alveare_load_bytes_per_cycle (~2.4 GB/s AXI
   at 300 MHz); duplicated here because the platform layer builds on top
   of this one. *)
let default_load_bytes_per_cycle = 8.0

let config ?(buffer_bytes = default_buffer_bytes) ?(overlap = Multicore.default_overlap)
    ?(cores = 1) ?(load_bytes_per_cycle = default_load_bytes_per_cycle) () =
  if buffer_bytes <= 0 then invalid_arg "Stream_runner.config: buffer_bytes";
  if overlap < 0 then invalid_arg "Stream_runner.config: overlap";
  if overlap >= buffer_bytes then
    invalid_arg "Stream_runner.config: overlap must be below the buffer size";
  if load_bytes_per_cycle <= 0.0 then
    invalid_arg "Stream_runner.config: load_bytes_per_cycle";
  { buffer_bytes; overlap; cores; load_bytes_per_cycle }

type result = {
  matches : Span.span list;
  chunks : int;
  compute_cycles : int;   (* sum of per-chunk matching cycles *)
  load_cycles : int;      (* sum of per-chunk buffer fills *)
  wall_cycles : int;      (* double-buffered: first fill + per-chunk max *)
}

let load_cycles_of_bytes ~config bytes =
  int_of_float (ceil (float_of_int bytes /. config.load_bytes_per_cycle))

let run ?(workers = 1) ?plan ?dfa ~config (program : Alveare_isa.Program.t)
    (input : string) : result =
  (* Check and lower once per stream, not once per chunk. *)
  let plan =
    match plan with
    | Some p -> p
    | None -> Alveare_arch.Plan.of_program program
  in
  let n = String.length input in
  let payload = config.buffer_bytes - config.overlap in
  let mc_config =
    Multicore.config ~cores:config.cores ~overlap:config.overlap ()
  in
  (* Chunk boundaries are a pure function of the stream length, so they
     are enumerated up front; each chunk's compute (the expensive part)
     is independent and fans out over the host pool, while the
     double-buffered wall-cycle accounting — which chains chunk k's
     compute against chunk k+1's load — stays a sequential fold over the
     in-order results. An empty stream still yields one empty chunk so
     nullable patterns report their match. *)
  let rec boundaries pos acc =
    if pos >= n then List.rev acc
    else
      let slice_start = max 0 (pos - config.overlap) in
      let slice_stop = min n (pos + payload) in
      boundaries slice_stop ((slice_start, slice_stop) :: acc)
  in
  let bounds = if n = 0 then [ (0, 0) ] else boundaries 0 [] in
  let chunk_results =
    Alveare_exec.Pool.map_list ~workers
      (fun (slice_start, slice_stop) ->
         let slice = String.sub input slice_start (slice_stop - slice_start) in
         (* The overlay family (and so its lazily built transition
            table) persists across chunks: a refill resumes on whatever
            table the previous chunks already built. *)
         let mc = Multicore.run ~plan ?dfa ~config:mc_config program slice in
         (* A chunk owns matches starting at or after its slice start but
            more than [overlap] before its slice end: those near the end
            may not fit the buffer and are re-seen (complete) by the next
            chunk's carry. The cutoffs tile the stream exactly:
            [0, s0-W) [s0-W, s1-W) ... [sk-W, n]. *)
         let cutoff =
           if slice_stop = n then n + 1 else slice_stop - config.overlap
         in
         let owned =
           List.filter_map
             (fun (s : Span.span) ->
                let start = s.Span.start + slice_start in
                let stop = s.Span.stop + slice_start in
                if start >= slice_start && start < cutoff then
                  Some { Span.start; stop }
                else None)
             mc.Multicore.matches
         in
         let chunk_load =
           if n = 0 then 0
           else load_cycles_of_bytes ~config (slice_stop - slice_start)
         in
         (owned, mc.Multicore.cycles, chunk_load))
      bounds
  in
  let chunks, matches, compute, load, wall, prev_compute =
    List.fold_left
      (fun (chunks, matches, compute, load, wall, prev_compute)
        (owned, chunk_compute, chunk_load) ->
        let wall =
          if chunks = 0 then wall + chunk_load (* first fill is exposed *)
          else wall + max prev_compute chunk_load
        in
        ( chunks + 1,
          List.rev_append owned matches,
          compute + chunk_compute,
          load + chunk_load,
          wall,
          chunk_compute ))
      (0, [], 0, 0, 0, 0) chunk_results
  in
  (* drain: the last chunk's compute was not yet added to wall *)
  let wall = wall + prev_compute in
  { matches = List.sort_uniq compare matches;
    chunks;
    compute_cycles = compute;
    load_cycles = load;
    wall_cycles = wall }

let find_all ?buffer_bytes ?overlap ?cores ?workers ?plan ?dfa program input =
  (run ?workers ?plan ?dfa ~config:(config ?buffer_bytes ?overlap ?cores ())
     program input)
    .matches
