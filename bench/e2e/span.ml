(* In-memory span recorder for the traced run.

   A span is one call into a layer: name, start, end, the enclosing span
   and the scan/request it served. Spans nest by dynamic extent, so a
   span's self time is its duration minus the durations of its direct
   children. Recording is off unless [enable] was called; when off,
   [run] is a plain call. Single-threaded: only the benchmark's main
   thread records. *)

type t = {
  id : int;
  parent : int;  (* 0 = root *)
  op : int;      (* scan / compile / request sequence number *)
  name : string;
  start : int64;
  stop : int64;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let current_op = ref 0

(* open spans, innermost first: id and accumulated child time *)
let stack : (int * int64 ref) list ref = ref []

(* name -> (count, total ns, self ns) *)
let totals : (string, int ref * float ref * float ref) Hashtbl.t =
  Hashtbl.create 32

let enable () = on := true
let set_op n = current_op := n

let account name ~dur ~self =
  let c, t, s =
    match Hashtbl.find_opt totals name with
    | Some e -> e
    | None ->
      let e = (ref 0, ref 0.0, ref 0.0) in
      Hashtbl.add totals name e;
      e
  in
  incr c;
  t := !t +. Int64.to_float dur;
  s := !s +. Int64.to_float self

let run name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with [] -> 0 | (p, _) :: _ -> p in
    let children = ref 0L in
    stack := (id, children) :: !stack;
    let start = Measure.now () in
    let finish () =
      let stop = Measure.now () in
      stack := List.tl !stack;
      let dur = Int64.sub stop start in
      (match !stack with
       | (_, c) :: _ -> c := Int64.add !c dur
       | [] -> ());
      account name ~dur ~self:(Int64.sub dur !children);
      spans := { id; parent; op = !current_op; name; start; stop } :: !spans
    in
    Fun.protect ~finally:finish f
  end

let count name =
  match Hashtbl.find_opt totals name with Some (c, _, _) -> !c | None -> 0

let total_ns name =
  match Hashtbl.find_opt totals name with Some (_, t, _) -> !t | None -> 0.0

let self_ns name =
  match Hashtbl.find_opt totals name with Some (_, _, s) -> !s | None -> 0.0

(* Per-name summary, heaviest self time first. *)
let summary () =
  Hashtbl.fold (fun name (c, t, s) acc -> (name, !c, !t, !s) :: acc) totals []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* One line per span: id, parent, op, name, start and end in ns. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
       Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.id s.parent s.op s.name
         s.start s.stop)
    (List.rev !spans);
  close_out oc
