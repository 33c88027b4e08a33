(* Fused one-pass ruleset engine (single-pass multi-pattern scan).

   A per-rule scan walks the whole stream once per rule: each covered
   rule consumes its Aho-Corasick candidate bucket, every other rule
   runs its own first-set skip loop — O(rules) passes of filter
   machinery over the same bytes, which dominates at Snort-scale
   rulesets even after the prefilter removed most attempts. This module
   fuses the whole ruleset into ONE streaming pass:

   - the Aho-Corasick literal automaton is stepped inline, filling the
     covered rules' candidate buckets exactly as a per-rule
     [Ac.find_iter] bucketing would (same pushes, same sort_uniq) —
     those rules still attempt post-sweep, since AC reports at literal
     END positions;
   - every non-covered rule with a usable first set gets
     a 256-entry shared dispatch table slot per first-set byte; the
     sweep offers each position whose byte is in the rule's first
     bitmap to the rule's {!Scan_cursor}, the same scan-loop body
     [Core]'s scans drive — the candidate stream "byte at position i
     is in the first set" is precisely what the per-rule prefilter skip
     loop enumerates, so every counter charge lands identically.

   Rules that share one compilation (the same physical
   [Compile.compiled], which [Ruleset.compile] gives every rule listing
   the same pattern) form a group, and the sweep does a group's work
   once: one cursor and one dispatch slot per first-set group, one
   candidate bucket per AC-covered group. A group's scan is a function
   of its compilation and the input alone, so every rule of the group
   gets the same outcome; [scan] still returns one per rule. The
   grouping is defined here only ({!representative}).

   Everything else (nullable, no-first-set, derivative backend) is
   left to the caller's residual per-rule path. The hits,
   spans, and every per-rule stats counter are bit-identical to a
   per-rule scan — the @onepasscheck differential battery pins this. *)

module Core = Alveare_arch.Core
module Plan = Alveare_arch.Plan
module Scan_cursor = Alveare_arch.Scan_cursor
module Dfa = Alveare_arch.Dfa_overlay
module Ac = Alveare_prefilter.Ac
module Pf = Alveare_prefilter.Prefilter
module Span = Alveare_engine.Semantics

(* --- Classification ----------------------------------------------------- *)

type klass =
  | K_residual  (* caller's per-rule path: nullable / derivative *)
  | K_ac        (* AC-covered: candidates collected by the shared sweep *)
  | K_first     (* first-set dispatch: scanned in-sweep by a cursor *)

type ac_index = {
  ai_ac : Ac.t;
  ai_refs : (int * int) array;  (* AC pattern idx -> (rule idx, lit offset) *)
}

type t = {
  rules : Compile.compiled array;
  rep : int array;  (* rule -> the first rule of its group *)
  klass : klass array;
  dispatch : int array array;
      (* byte -> K_first group representatives (ascending) whose first
         set contains it; merged from the per-rule first bitmaps *)
  ac : ac_index option;  (* refs name group representatives only *)
}

(* The pattern source only narrows the search: rules group by physical
   equality of their compilation. *)
let representatives (rules : Compile.compiled array) : int array =
  let firsts = Hashtbl.create 16 in
  Array.mapi
    (fun i (c : Compile.compiled) ->
       match
         List.find_opt
           (fun j -> rules.(j) == c)
           (Hashtbl.find_all firsts c.Compile.pattern)
       with
       | Some j -> j
       | None ->
         Hashtbl.add firsts c.Compile.pattern i;
         i)
    rules

let representative t i = t.rep.(i)

let build ~(rules : Compile.compiled array)
    ~(ac : (Ac.t * (int * int) array * bool array) option) : t =
  let rep = representatives rules in
  let covered i =
    match ac with Some (_, _, cov) -> cov.(i) | None -> false
  in
  let klass =
    Array.mapi
      (fun i (c : Compile.compiled) ->
         match c.Compile.backend with
         | Compile.Derivative _ -> K_residual
         | Compile.Isa | Compile.Isa_lowered ->
           if covered i then K_ac
           else if Pf.first_usable c.Compile.prefilter then K_first
           else K_residual)
      rules
  in
  let dispatch_l = Array.make 256 [] in
  for i = Array.length rules - 1 downto 0 do
    if klass.(i) = K_first && rep.(i) = i then begin
      let pf = rules.(i).Compile.prefilter in
      for b = 0 to 255 do
        if Pf.mem_first pf (Char.chr b) then
          dispatch_l.(b) <- i :: dispatch_l.(b)
      done
    end
  done;
  { rules;
    rep;
    klass;
    dispatch = Array.map Array.of_list dispatch_l;
    ac =
      Option.map
        (fun (a, refs, _) ->
           { ai_ac = a;
             ai_refs = Array.map (fun (i, off) -> (rep.(i), off)) refs })
        ac }

(* --- Scan counters (server gauges) -------------------------------------- *)

type counters = {
  onepass_scans : int;
  shared_pass_bytes : int;
  dispatch_candidates : int;
  ac_candidates : int;
  product_rules : int;
  product_threads : int;
  product_states : int;
}

let c_scans = Atomic.make 0
let c_bytes = Atomic.make 0
let c_dispatch = Atomic.make 0
let c_ac = Atomic.make 0
let c_prules = Atomic.make 0
let c_pthreads = Atomic.make 0
let c_pstates = Atomic.make 0

let atomic_add a k = ignore (Atomic.fetch_and_add a k)

let counters () =
  { onepass_scans = Atomic.get c_scans;
    shared_pass_bytes = Atomic.get c_bytes;
    dispatch_candidates = Atomic.get c_dispatch;
    ac_candidates = Atomic.get c_ac;
    product_rules = Atomic.get c_prules;
    product_threads = Atomic.get c_pthreads;
    product_states = Atomic.get c_pstates }

(* --- The fused sweep ---------------------------------------------------- *)

type outcome =
  | Scanned of Core.stats * Span.span list
      (* K_first: scanned in-sweep; stats and spans are exactly the
         per-rule scan's *)
  | Candidates of int array
      (* K_ac: sorted candidate starts, identical to a per-rule
         [Ac.find_iter] bucketing; the caller attempts post-sweep *)
  | Residual
      (* untouched by the sweep: caller's per-rule path *)

(* The dispatch table of a multi-core sweep: it offers no position to
   any cursor. *)
let no_dispatch = Array.make 256 [||]

(* Every K_first group drives one [Scan_cursor] over the whole input:
   the sweep offers it each position whose byte is in the group's first
   set, in ascending order, which is exactly the candidate stream
   [Core]'s prefilter source enumerates — so every counter charge lands
   identically. Each candidate is attempted at once, on the group's
   overlay session when the cursor holds one; no two cursors of a
   sweep share a family, so none is refused for another's session.
   At [cores > 1] a rule's attempts belong to the simulated cores, so
   the sweep opens no cursor: first-set groups come back [Residual]
   and the walk only fills the candidate buckets. *)
let scan ?(cores = 1) (t : t) (input : string) : outcome array =
  let n = String.length input in
  let nr = Array.length t.rules in
  let cursors = Array.make nr None in
  Fun.protect
    ~finally:(fun () ->
        Array.iter (Option.iter (fun (_, c) -> Scan_cursor.release c))
          cursors)
  @@ fun () ->
  Array.iteri
    (fun i (c : Compile.compiled) ->
       if cores = 1 && t.klass.(i) = K_first && t.rep.(i) = i then begin
         let stats = Core.fresh_stats () in
         let cur =
           Scan_cursor.start ~dfa:c.Compile.dfa ~config:Core.default_config
             ~stats ~all:true c.Compile.plan (Plan.create_scratch ()) input 0
         in
         cursors.(i) <- Some (stats, cur)
       end)
    t.rules;
  let buckets =
    match t.ac with Some _ -> Array.make nr [] | None -> [||]
  in
  let dispatch = if cores = 1 then t.dispatch else no_dispatch in
  let ac_state = ref Ac.root in
  let disp_count = ref 0 and ac_count = ref 0 in
  for i = 0 to n - 1 do
    (match t.ac with
     | Some a ->
       ac_state := Ac.step a.ai_ac !ac_state (String.unsafe_get input i);
       let out = Ac.outputs a.ai_ac !ac_state in
       for k = 0 to Array.length out - 1 do
         let pat = out.(k) in
         let rule_idx, lit_offset = a.ai_refs.(pat) in
         let start = i + 1 - Ac.pattern_length a.ai_ac pat - lit_offset in
         if start >= 0 then begin
           buckets.(rule_idx) <- start :: buckets.(rule_idx);
           incr ac_count
         end
       done
     | None -> ());
    let ds =
      Array.unsafe_get dispatch (Char.code (String.unsafe_get input i))
    in
    for k = 0 to Array.length ds - 1 do
      match cursors.(Array.unsafe_get ds k) with
      | Some (_, cur) ->
        incr disp_count;
        ignore (Scan_cursor.offer cur i)
      | None -> assert false
    done
  done;
  let sessions = ref 0 and session_attempts = ref 0 and states = ref 0 in
  let outcomes = Array.make nr Residual in
  Array.iteri
    (fun i cursor ->
       outcomes.(i) <-
         (match cursor with
          | Some (stats, cur) ->
            (match Scan_cursor.session cur with
             | Some d ->
               incr sessions;
               session_attempts := !session_attempts + stats.Core.attempts;
               states := !states + (Dfa.stats_of d).Dfa.states_built
             | None -> ());
            Scanned (stats, Scan_cursor.finish cur)
          | None when t.rep.(i) < i ->
            (* a later rule of a group: its first rule's outcome, with
               a stats record of its own *)
            (match outcomes.(t.rep.(i)) with
             | Scanned (s, spans) ->
               Scanned ({ s with Core.cycles = s.Core.cycles }, spans)
             | (Candidates _ | Residual) as o -> o)
          | None ->
            if t.klass.(i) = K_ac then
              Candidates (Array.of_list (List.sort_uniq compare buckets.(i)))
            else Residual))
    cursors;
  Atomic.incr c_scans;
  atomic_add c_bytes n;
  atomic_add c_dispatch !disp_count;
  atomic_add c_ac !ac_count;
  atomic_add c_prules !sessions;
  atomic_add c_pthreads !session_attempts;
  atomic_add c_pstates !states;
  outcomes
