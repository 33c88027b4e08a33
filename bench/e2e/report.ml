(* What a workload child tells its parent: one line per fact on stdout.

     metric NAME VALUE UNIT   a reported metric
     count NAME VALUE         a deterministic count (--repeat holds it exact)
     ops ATTEMPTED FAILED     operations run and operations with a wrong output
     problem TEXT             a failed check

   Progress and human-readable detail go to stderr. *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let finite v = if Float.is_finite v then v else 0.0

let metric name unit v = Printf.printf "metric %s %.17g %s\n%!" name (finite v) unit

(* An untraced run reports the end-to-end metrics, a traced run the
   per-layer ones. *)
let traced = ref false
let e2e name unit v = if not !traced then metric name unit v
let layer name unit v = if !traced then metric name unit v
let count name v = Printf.printf "count %s %.17g\n%!" name v
let ops ~attempted ~failed = Printf.printf "ops %d %d\n%!" attempted failed

let problem fmt =
  Printf.ksprintf (fun s -> Printf.printf "problem %s\n%!" (one_line s)) fmt

let note fmt = Printf.ksprintf (fun s -> Printf.eprintf "  %s\n%!" s) fmt

(* Where a run leaves its files (span files, daemon sockets), relative to
   the working directory; created on first use. *)
let run_dir () =
  let d = ".bench_e2e" in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* The share [a / b], 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Lines a parent reads back. *)
type line =
  | Metric of string * float * string
  | Count of string * float
  | Ops of int * int
  | Problem of string

let parse line =
  match String.split_on_char ' ' line with
  | [ "metric"; name; v; unit ] ->
    Option.map (fun v -> Metric (name, v, unit)) (float_of_string_opt v)
  | [ "count"; name; v ] ->
    Option.map (fun v -> Count (name, v)) (float_of_string_opt v)
  | [ "ops"; a; f ] ->
    (match int_of_string_opt a, int_of_string_opt f with
     | Some a, Some f -> Some (Ops (a, f))
     | _ -> None)
  | "problem" :: rest -> Some (Problem (String.concat " " rest))
  | _ -> None
