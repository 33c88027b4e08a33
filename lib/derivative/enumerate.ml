(* Finite-language detection and enumeration over the derivative graph
   (see the interface for how the mid-end uses it).

   The language is finite iff the reachable derivative graph restricted
   to LIVE states (those that reach an accepting state) is acyclic —
   dead cycles, such as the sinks complements produce, do not count.
   The string walk follows live edges only, so a live cycle drives it
   past [max_bytes]: every budget that trips means "not provably finite"
   and the caller falls back to the derivative engine. Each leaf of the
   walk accepts, so it stops within [max_strings] leaves of depth at
   most [max_bytes]. *)

open Alveare_frontend
module R = Regex

exception Over_budget

(* BFS over position-independent derivatives: the states and their
   byte-labelled edges. *)
let explore ~max_states arena (root : R.node) =
  let nodes : (int, R.node) Hashtbl.t = Hashtbl.create 64 in
  let edges : (int, (char * int) list) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let deriv = Engine.deriv_free arena in
  let add (n : R.node) =
    if not (Hashtbl.mem nodes n.R.id) then begin
      if Hashtbl.length nodes >= max_states then raise Over_budget;
      Hashtbl.add nodes n.R.id n;
      Queue.add n queue
    end
  in
  add root;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    let outs =
      Charset.fold_chars
        (fun outs c ->
          let d = deriv n c in
          if R.is_bot d then outs else (add d; (c, d.R.id) :: outs))
        [] (R.first_bytes n)
    in
    Hashtbl.replace edges n.R.id (List.rev outs)
  done;
  (nodes, edges)

let live_states nodes edges =
  (* reverse reachability from accepting states *)
  let preds : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun src outs ->
      List.iter
        (fun (_, dst) ->
          let old = Option.value ~default:[] (Hashtbl.find_opt preds dst) in
          Hashtbl.replace preds dst (src :: old))
        outs)
    edges;
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem live id) then begin
      Hashtbl.add live id ();
      List.iter mark (Option.value ~default:[] (Hashtbl.find_opt preds id))
    end
  in
  Hashtbl.iter (fun id (n : R.node) -> if n.R.null then mark id) nodes;
  live

(* Every accepted string, by a path walk over the live subgraph. *)
let strings_of ~max_strings ~max_bytes nodes edges live root_id =
  let out = ref [] in
  let count = ref 0 in
  let buf = Buffer.create 16 in
  let rec walk id =
    let n = Hashtbl.find nodes id in
    if n.R.null then begin
      incr count;
      if !count > max_strings then raise Over_budget;
      out := Buffer.contents buf :: !out
    end;
    let outs = Option.value ~default:[] (Hashtbl.find_opt edges id) in
    List.iter
      (fun (c, dst) ->
        if Hashtbl.mem live dst then begin
          if Buffer.length buf >= max_bytes then raise Over_budget;
          Buffer.add_char buf c;
          walk dst;
          Buffer.truncate buf (Buffer.length buf - 1)
        end)
      outs
  in
  if Hashtbl.mem live root_id then walk root_id;
  !out

let enumerate ?(max_states = 512) ?(max_strings = 256) ?(max_bytes = 64)
    (eng : Engine.t) : string list option =
  let root = Engine.root eng in
  if not root.R.look_free then None
  else
    let arena = Engine.arena eng in
    Mutex.protect (R.lock arena) (fun () ->
        match
          let nodes, edges = explore ~max_states arena root in
          strings_of ~max_strings ~max_bytes nodes edges
            (live_states nodes edges) root.R.id
        with
        | strings ->
          (* longest-first, then lexicographic for determinism *)
          Some
            (List.sort
               (fun a b ->
                 let la = String.length a and lb = String.length b in
                 if la <> lb then compare lb la else compare a b)
               strings)
        | exception Over_budget -> None)
