(* Clock, order statistics and memory probes shared by every workload.

   All timings come from the monotonic clock (CLOCK_MONOTONIC through
   bechamel's stub), in nanoseconds. *)

let now () = Monotonic_clock.now ()

let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

let time f =
  let t0 = now () in
  let v = f () in
  (v, ns_since t0)

(* Linear interpolation between closest ranks, the "inclusive" method of
   Python's [statistics.quantiles] and numpy's default. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Call [f 0], [f 1], ... until [seconds] of wall time have passed
   (always at least once); returns the number of calls. *)
let until ~seconds f =
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go i =
    f i;
    if Int64.compare (now ()) deadline < 0 then go (i + 1) else i + 1
  in
  go 0

(* --- Host speed ----------------------------------------------------------

   The reference host is a shared virtual machine whose speed moves by
   up to a third within minutes: its clock drifts with the load of the
   whole host (by up to a quarter), and a busy neighbour on the same
   physical core slows throughput-bound code while it runs. Two things
   keep that out of the end-to-end timings:

   - latency is taken from the fastest pass of the window
     ([fastest_pass]), a stretch with no neighbour in the way; such
     stretches come several times a second;
   - timings are scaled to a reference clock by [probe]: a fixed loop of
     dependent table lookups, part of the benchmark and never of the
     program under test, timed between operations. Its fastest time
     follows the host's clock and hardly a busy neighbour (a chain of
     dependent loads leaves the core's other resources free), so
     [at_reference_speed] can undo the clock drift. *)

let probe_table = Array.init 256 (fun i -> ((i * 167) + 13) land 255)

let probe_input =
  String.init 16384 (fun i -> Char.chr (((i * 2654435761) lsr 7) land 255))

let probe_sink = ref 0

let probe_loop () =
  let s = ref 0 in
  for i = 0 to String.length probe_input - 1 do
    let c = Char.code (String.unsafe_get probe_input i) in
    s := Array.unsafe_get probe_table ((c lxor !s) land 255) + ((!s lsl 1) land 0xffff)
  done;
  probe_sink := !s

let probes = Samples.create ()

(* Times one probe loop. *)
let probe () =
  let t0 = now () in
  probe_loop ();
  Samples.add probes (ns_since t0)

(* The probe loop's fastest time on the reference host (2 vCPUs of a
   Xeon at a nominal 2.0 GHz). *)
let probe_reference_ns = 60_000.0

(* The fastest probe so far, in ns. *)
let probe_fastest () = quantile (Samples.to_array probes) 0.0

(* [ns] as it would read with the probe loop at its reference time. *)
let at_reference_speed ns =
  if probes.Samples.len = 0 then ns else ns *. probe_reference_ns /. probe_fastest ()

(* Time [op] back to back for [seconds], with a probe every 16
   operations; [after] sees every result. Probes and [after] run outside
   the timed intervals. Returns the per-call latencies in ns. *)
let window ~seconds ~op ~after =
  let samples = Samples.create () in
  ignore
    (until ~seconds (fun i ->
         if i mod 16 = 0 then probe ();
         let t0 = now () in
         let r = op i in
         Samples.add samples (ns_since t0);
         after i r));
  Samples.to_array samples

(* The mean latency per operation over the fastest pass: [lat] cut into
   consecutive passes of [len] operations (one round of the workload's
   operation mix), the pass with the least total time. A window shorter
   than one pass counts as one. *)
let fastest_pass ~len (lat : float array) =
  let n = Array.length lat in
  if n < len then mean lat
  else begin
    let best = ref infinity in
    for p = 0 to (n / len) - 1 do
      let s = ref 0.0 in
      for j = p * len to ((p + 1) * len) - 1 do
        s := !s +. lat.(j)
      done;
      best := Float.min !best !s
    done;
    !best /. float_of_int len
  end

(* Peak resident set of a process (VmHWM, kB -> MB), from procfs: the
   memory the system under test needed, set-up included. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> Some (float_of_int kb /. 1024.0)
         | None -> scan ())
    in
    let r = scan () in
    close_in ic;
    r
