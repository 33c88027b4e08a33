(* Precise ambiguity / worst-case backtracking-cost analysis.

   Pipeline:

   1. Bounded repeats are expanded under caps ({n,m} becomes mandatory
      copies plus optional copies plus a trailing star for unbounded
      maxima), so the machine stays small. Caps can only make the
      analysis miss structure — every witness is membership-checked
      against the engine's exact unfolded NFA, never against the
      capped machine.

   2. A Thompson-style epsilon machine is built from the positioned
      AST. The unit of ambiguity is the COMPOSITE edge: one simple
      epsilon path from a consuming state's continuation to the next
      consuming state. Two composite edges with the same endpoints but
      different epsilon paths are distinct engine choices — this is
      what makes iteration-boundary ambiguity (nested stars such as
      "(a+)+b") visible where a position/Glushkov automaton would
      collapse it.

   3. EDA (exponential degree of ambiguity, Weber–Seidl): a reachable
      SCC of the self-product automaton that contains a diagonal state
      (q, q) and an internal step taken with two DISTINCT composite
      edges. The cycle through that step is the pump: two distinct
      runs q →w→ q, hence >= 2^k runs on w^k.

   4. IDA (polynomial degree): pump pairs (p, q), p <> q, such that
      some word v satisfies p →v→ p, p →v→ q, q →v→ q — decided by
      reachability (p,p,q) →+ (p,q,q) in the cube automaton, with the
      first coordinate confined to SCC(p) and the third to SCC(q).
      The polynomial degree is the longest chain of pump pairs linked
      by reachability q_i →* p_{i+1}.

   5. Witness synthesis: prefix = bytes along a shortest root path to
      the pump anchor; pump = bytes along the product (or cube) cycle;
      suffix = searched from a handful of candidate bytes (preferring
      a byte no consuming state accepts) such that the pumped strings
      do not match the EXACT engine NFA anywhere (Pike VM check), and
      a priority-faithful backtracking cost simulation over that NFA
      grows with the claimed class. A structural finding that fails
      witness validation is downgraded: ambiguity that cannot be made
      to backtrack (e.g. (a|a)* with no failing continuation) is
      reported Linear with the facts kept in [eda] / [ida_degree].

   Everything is budgeted and total: exceeding any limit degrades to a
   sound partial answer with [budget_hit] set, never an exception. *)

module F = Alveare_frontend
module Charset = F.Charset
module Spanned = F.Spanned
module Ast = F.Ast
module E = Alveare_engine

type verdict = Linear | Polynomial of int | Exponential

type witness = {
  prefix : string;
  pump : string;
  suffix : string;
  pump_left : int;
  pump_right : int;
}

type t = {
  verdict : verdict;
  witness : witness option;
  eda : bool;
  ida_degree : int;
  states : int;
  budget_hit : bool;
  notes : string list;
}

let verdict_name = function
  | Linear -> "linear"
  | Polynomial _ -> "polynomial"
  | Exponential -> "exponential"

let pp_verdict ppf = function
  | Linear -> Fmt.string ppf "linear"
  | Polynomial d -> Fmt.pf ppf "polynomial(d=%d)" d
  | Exponential -> Fmt.string ppf "exponential"

let unanalyzed =
  { verdict = Linear; witness = None; eda = false; ida_degree = 0;
    states = 0; budget_hit = false; notes = [ "not analysed" ] }

let rec repeat_string s k = if k <= 0 then "" else s ^ repeat_string s (k - 1)

let attack_string ?(pumps = 8) w = w.prefix ^ repeat_string w.pump pumps ^ w.suffix

(* --- Budgets ----------------------------------------------------------- *)

let mandatory_cap = 12 (* {n,} keeps min(n, cap) mandatory copies *)
let optional_cap = 3 (* {n,m} keeps min(m-n, cap) optional copies *)
let max_machine_nodes = 512 (* Thompson machine node budget *)
let max_consuming_states = 144 (* product is quadratic in this *)
let per_source_edge_cap = 64 (* composite edges out of one state *)
let total_edge_cap = 2048
let product_budget = 400_000 (* product transition pair checks *)
let cube_pair_budget = 80_000 (* cube triple checks per candidate pair *)
let cube_total_budget = 480_000
let max_ida_pairs = 192 (* candidate pump pairs examined *)
let max_chain_degree = 8 (* degree cap when the pair graph cycles *)
let sim_budget = 250_000 (* cost-simulation steps per pumped string *)
let exact_nfa_states = 20_000

(* --- Charset helpers --------------------------------------------------- *)

let inter (a : Charset.t) (b : Charset.t) : Charset.t =
  let rec go acc ra rb =
    match ra, rb with
    | [], _ | _, [] -> acc
    | (alo, ahi) :: ra', (blo, bhi) :: rb' ->
      let lo = max alo blo and hi = min ahi bhi in
      let acc = if lo <= hi then (lo, hi) :: acc else acc in
      if ahi < bhi then go acc ra' rb
      else if bhi < ahi then go acc ra rb'
      else go acc ra' rb'
  in
  Charset.of_ranges (List.rev (go [] (Charset.ranges a) (Charset.ranges b)))

(* A byte from the set, preferring ones that read well in diagnostics. *)
let pick_byte (set : Charset.t) : char option =
  let prefer lo hi =
    List.find_map
      (fun (a, b) ->
         let a = max a (Char.code lo) and b = min b (Char.code hi) in
         if a <= b then Some (Char.chr a) else None)
      (Charset.ranges set)
  in
  match prefer 'a' 'z' with
  | Some c -> Some c
  | None ->
    (match prefer '0' '9' with
     | Some c -> Some c
     | None ->
       (match prefer 'A' 'Z' with
        | Some c -> Some c
        | None -> Charset.choose set))

(* --- Capped bounded-repeat expansion ----------------------------------- *)

(* Rewrites every {n,m} into mandatory copies / optional copies / star
   or plus so the machine builder below only sees *, + and ?. Spans are
   preserved on every synthesized node. *)
let expand ~mcap ~ocap (root : Spanned.t) : Spanned.t * bool =
  let capped = ref false in
  let rec copies k x = if k <= 0 then [] else x :: copies (k - 1) x in
  let rec go (s : Spanned.t) : Spanned.t =
    let mk node = { s with Spanned.node } in
    match s.Spanned.node with
    | Spanned.Empty | Spanned.Char _ | Spanned.Class _ | Spanned.Any -> s
    | Spanned.Concat xs -> mk (Spanned.Concat (List.map go xs))
    | Spanned.Alt xs -> mk (Spanned.Alt (List.map go xs))
    | Spanned.Group x -> mk (Spanned.Group (go x))
    | Spanned.Repeat (x, q) ->
      let x = go x in
      let greedy = q.Ast.greedy in
      let star = { Ast.qmin = 0; qmax = None; greedy } in
      let plus = { Ast.qmin = 1; qmax = None; greedy } in
      let opt = { Ast.qmin = 0; qmax = Some 1; greedy } in
      (match q.Ast.qmin, q.Ast.qmax with
       | 0, None -> mk (Spanned.Repeat (x, star))
       | 1, None -> mk (Spanned.Repeat (x, plus))
       | 0, Some 1 -> mk (Spanned.Repeat (x, opt))
       | n, None ->
         let n' = min n mcap in
         if n' < n then capped := true;
         mk (Spanned.Concat
               (copies (n' - 1) x @ [ mk (Spanned.Repeat (x, plus)) ]))
       | n, Some m ->
         let n' = min n mcap in
         let opts = min (max 0 (m - n)) ocap in
         if n' < n || opts < m - n then capped := true;
         (match
            copies n' x @ copies opts (mk (Spanned.Repeat (x, opt)))
          with
          | [] -> mk Spanned.Empty
          | [ p ] -> p
          | ps -> mk (Spanned.Concat ps)))
    | Spanned.Inter _ | Spanned.Negate _ | Spanned.Look _ ->
      (* [analyze] short-circuits extended patterns before expansion *)
      invalid_arg "Ambiguity: extended operators are not analysed"
  in
  let r = go root in
  (r, !capped)

(* --- The analysis machine ---------------------------------------------- *)

(* Thompson machine: [Sym] consumes one byte of [cls]; [left]/[right]
   tie the state back to a pattern byte span (or an instruction address
   range when built from a program). *)
type mnode =
  | Eps of int list
  | Sym of { cls : Charset.t; left : int; right : int; next : int }
  | Stop

type machine = { nodes : mnode array; start : int }

exception Budget of string

type builder = { mutable store : mnode array; mutable len : int }

let badd b node =
  if b.len >= max_machine_nodes then raise (Budget "machine node budget");
  if b.len = Array.length b.store then begin
    let bigger = Array.make (max 16 (2 * b.len)) Stop in
    Array.blit b.store 0 bigger 0 b.len;
    b.store <- bigger
  end;
  b.store.(b.len) <- node;
  b.len <- b.len + 1;
  b.len - 1

let bset b i node = b.store.(i) <- node

let class_of_spanned_class (cls : Ast.charclass) =
  if cls.Ast.negated then Charset.complement ~alphabet_size:256 cls.Ast.set
  else cls.Ast.set

let dot_set = Charset.complement ~alphabet_size:256 Charset.newline

(* Backwards Thompson build mirroring Nfa.of_ast, but span-carrying and
   over the expanded tree (only *, + and ? quantifiers remain). *)
let machine_of_spanned (s : Spanned.t) : machine =
  let b = { store = Array.make 64 Stop; len = 0 } in
  let rec go (s : Spanned.t) (next : int) : int =
    let sym cls =
      badd b (Sym { cls; left = s.Spanned.left; right = s.Spanned.right; next })
    in
    match s.Spanned.node with
    | Spanned.Empty -> next
    | Spanned.Char c -> sym (Charset.singleton c)
    | Spanned.Any -> sym dot_set
    | Spanned.Class cls -> sym (class_of_spanned_class cls)
    | Spanned.Group x -> go x next
    | Spanned.Concat xs -> List.fold_right (fun x acc -> go x acc) xs next
    | Spanned.Alt branches ->
      let entries = List.map (fun x -> go x next) branches in
      badd b (Eps entries)
    | Spanned.Repeat (x, q) ->
      let greedy = q.Ast.greedy in
      (match q.Ast.qmin, q.Ast.qmax with
       | 0, Some 1 ->
         let entry = go x next in
         badd b (Eps (if greedy then [ entry; next ] else [ next; entry ]))
       | qmin, None ->
         let loop = badd b (Eps []) in
         let entry = go x loop in
         bset b loop (Eps (if greedy then [ entry; next ] else [ next; entry ]));
         if qmin = 0 then loop else go x loop
       | _ ->
         (* expand left only *, + and ? behind *)
         raise (Budget "unexpanded bounded repeat"))
    | Spanned.Inter _ | Spanned.Negate _ | Spanned.Look _ ->
      invalid_arg "Ambiguity: extended operators are not analysed"
  in
  let stop = badd b Stop in
  let start = go s stop in
  { nodes = Array.sub b.store 0 b.len; start }

(* --- Composite-edge automaton ------------------------------------------ *)

(* States are the consuming machine nodes plus a virtual root. A
   composite edge u --cls--> v is one simple epsilon path from u's
   continuation (or the machine start, for the root) to consuming node
   v, labelled with v's class. Distinct simple paths give distinct
   edges — that distinctness is the ambiguity being measured.

   Labels are interned: [cls] indexes [classes], the automaton's
   distinct byte sets, so a product or cube step intersects two labels
   with one lookup in the [meet] memo and allocates no set. *)
type cedge = {
  eid : int;
  esrc : int; (* automaton state, [nstates] = root *)
  edst : int; (* automaton state of the consuming node entered *)
  cls : int; (* index into [classes] *)
}

type aut = {
  nstates : int; (* consuming states; root = nstates *)
  spans : (int * int) array; (* state -> source span *)
  out : cedge list array; (* state (incl. root) -> composite edges *)
  reachable : bool array; (* state (incl. root) -> reachable from root *)
  classes : Charset.t array; (* distinct edge labels *)
  meet : int array;
      (* [c1 * |classes| + c2] -> [pick_byte] of the intersection as a
         byte code, [no_byte] when disjoint, [unmet] until asked *)
  budget_hit : bool;
}

let unmet = -2
let no_byte = -1

(* The preferred byte of two edge labels' intersection ([pick_byte]'s
   order), or [no_byte] when they are disjoint; memoised per pair of
   classes, both orders at once. *)
let meet_byte (a : aut) c1 c2 =
  let n = Array.length a.classes in
  let b = a.meet.((c1 * n) + c2) in
  if b <> unmet then b
  else begin
    let b =
      match pick_byte (inter a.classes.(c1) a.classes.(c2)) with
      | Some c -> Char.code c
      | None -> no_byte
    in
    a.meet.((c1 * n) + c2) <- b;
    a.meet.((c2 * n) + c1) <- b;
    b
  end

let automaton (m : machine) : aut =
  let nsym = ref 0 in
  let state_of_node = Array.make (Array.length m.nodes) (-1) in
  Array.iteri
    (fun i n ->
       match n with
       | Sym _ ->
         state_of_node.(i) <- !nsym;
         incr nsym
       | _ -> ())
    m.nodes;
  let nstates = !nsym in
  if nstates > max_consuming_states then raise (Budget "too many states");
  let sym_node = Array.make (max 1 nstates) 0 in
  let spans = Array.make (max 1 nstates) (0, 0) in
  (* node -> class id of its label, distinct labels numbered in node
     order *)
  let class_of_node = Array.make (Array.length m.nodes) (-1) in
  let class_ids = Hashtbl.create 16 in
  let classes = ref [] in
  Array.iteri
    (fun i n ->
       match n with
       | Sym { left; right; cls; _ } ->
         sym_node.(state_of_node.(i)) <- i;
         spans.(state_of_node.(i)) <- (left, right);
         let key = Charset.ranges cls in
         class_of_node.(i) <-
           (match Hashtbl.find_opt class_ids key with
            | Some c -> c
            | None ->
              let c = Hashtbl.length class_ids in
              Hashtbl.add class_ids key c;
              classes := cls :: !classes;
              c)
       | _ -> ())
    m.nodes;
  let classes = Array.of_list (List.rev !classes) in
  let budget_hit = ref false in
  let next_eid = ref 0 in
  let total_edges = ref 0 in
  let edges_from (src_state : int) (origin : int) : cedge list =
    let out = ref [] in
    let count = ref 0 in
    let rec visit onpath i =
      if !count >= per_source_edge_cap || !total_edges >= total_edge_cap then
        budget_hit := true
      else
        match m.nodes.(i) with
        | Stop -> ()
        | Sym _ ->
          incr count;
          incr total_edges;
          let e =
            { eid = !next_eid; esrc = src_state; edst = state_of_node.(i);
              cls = class_of_node.(i) }
          in
          incr next_eid;
          out := e :: !out
        | Eps succs ->
          (* A node may repeat on the path: exiting an inner loop,
             looping the outer quantifier and re-entering passes the
             inner loop head twice between two consumes, and that
             boundary re-entry is exactly the engine choice a Glushkov
             view collapses (what makes "(a*)*b" exponential). Two
             visits suffice for the classic shapes; a third would only
             add zero-width iterations the core's cutoff forbids. *)
          let visits = List.length (List.filter (fun j -> j == i) onpath) in
          if visits < 2 then List.iter (visit (i :: onpath)) succs
    in
    visit [] origin;
    List.rev !out
  in
  let out = Array.make (nstates + 1) [] in
  out.(nstates) <- edges_from nstates m.start;
  for st = 0 to nstates - 1 do
    match m.nodes.(sym_node.(st)) with
    | Sym { next; _ } -> out.(st) <- edges_from st next
    | _ -> ()
  done;
  (* Reachability from the root over composite edges. *)
  let reachable = Array.make (nstates + 1) false in
  let rec reach st =
    if not reachable.(st) then begin
      reachable.(st) <- true;
      List.iter (fun e -> reach e.edst) out.(st)
    end
  in
  reach nstates;
  (* Drop edges out of unreachable states so every later pass only sees
     live structure. *)
  for st = 0 to nstates do
    if not reachable.(st) then out.(st) <- []
  done;
  let nclasses = Array.length classes in
  { nstates; spans; out; reachable; classes;
    meet = Array.make (nclasses * nclasses) unmet; budget_hit = !budget_hit }

(* Tarjan SCC over an adjacency function, iterative so deep machines
   cannot blow the OCaml stack. Returns the component id per node. *)
let scc_of (n : int) (succ : int -> int list) : int array * int =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      (* explicit DFS: frames of (node, remaining successors) *)
      let frames = ref [ (root, ref (succ root)) ] in
      index.(root) <- !next_index;
      low.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, rest) :: tl ->
          (match !rest with
           | w :: ws ->
             rest := ws;
             if index.(w) = -1 then begin
               index.(w) <- !next_index;
               low.(w) <- !next_index;
               incr next_index;
               stack := w :: !stack;
               on_stack.(w) <- true;
               frames := (w, ref (succ w)) :: !frames
             end
             else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
           | [] ->
             frames := tl;
             (match tl with
              | (parent, _) :: _ -> low.(parent) <- min low.(parent) low.(v)
              | [] -> ());
             if low.(v) = index.(v) then begin
               let rec pop () =
                 match !stack with
                 | [] -> ()
                 | w :: rest ->
                   stack := rest;
                   on_stack.(w) <- false;
                   comp.(w) <- !next_comp;
                   if w <> v then pop ()
               in
               pop ();
               incr next_comp
             end)
      done
    end
  done;
  (comp, !next_comp)

(* --- EDA: product-automaton self-intersection -------------------------- *)

type product = {
  mutable p_states : (int * int) array; (* pidx -> (a, b) *)
  mutable p_count : int;
  mutable p_adj : (int * bool * char) list array; (* pidx -> (dst, amb, byte) *)
}

(* BFS the reachable self-product from (root, root), recording for each
   transition whether it was taken with two distinct composite edges and
   a byte from the label intersection. States are numbered in discovery
   order through a flat [(nstates + 1)^2] index, and that order is also
   the BFS order, so the numbers double as the queue. Every transition
   pair costs one unit of [product_budget], disjoint labels included. *)
let build_product (a : aut) : product * bool =
  let n1 = a.nstates + 1 in
  let index = Array.make (n1 * n1) (-1) in
  let p =
    { p_states = Array.make 256 (0, 0);
      p_count = 0;
      p_adj = Array.make 256 [] }
  in
  let ensure_capacity () =
    if p.p_count = Array.length p.p_states then begin
      let bigger = Array.make (2 * p.p_count) (0, 0) in
      Array.blit p.p_states 0 bigger 0 p.p_count;
      p.p_states <- bigger;
      let bigger = Array.make (2 * p.p_count) [] in
      Array.blit p.p_adj 0 bigger 0 p.p_count;
      p.p_adj <- bigger
    end
  in
  let intern x y =
    let key = (x * n1) + y in
    let i = index.(key) in
    if i >= 0 then i
    else begin
      ensure_capacity ();
      let i = p.p_count in
      index.(key) <- i;
      p.p_states.(i) <- (x, y);
      p.p_count <- p.p_count + 1;
      i
    end
  in
  let work = ref 0 in
  ignore (intern a.nstates a.nstates);
  let next = ref 0 in
  let budget_hit =
    try
      while !next < p.p_count do
        let i = !next in
        incr next;
        let x, y = p.p_states.(i) in
        List.iter
          (fun e1 ->
             List.iter
               (fun e2 ->
                  incr work;
                  if !work > product_budget then raise Exit;
                  let byte = meet_byte a e1.cls e2.cls in
                  if byte <> no_byte then begin
                    let j = intern e1.edst e2.edst in
                    p.p_adj.(i) <-
                      (j, e1.eid <> e2.eid, Char.chr byte) :: p.p_adj.(i)
                  end)
               a.out.(y))
          a.out.(x)
      done;
      false
    with Exit -> true
  in
  (p, budget_hit)

(* An EDA candidate: the pump anchor state and the pump word. *)
type eda_candidate = {
  anchor : int; (* automaton state q with two distinct runs q ->w-> q *)
  word : string;
  core_states : int list; (* automaton states of the ambiguous SCC *)
}

(* Shortest path inside a node subset of the product graph, by BFS;
   returns the byte labels. *)
let product_path (p : product) ~(inside : int -> bool) ~(src : int)
    ~(dst : int) : string option =
  if src = dst then Some ""
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Queue.add src queue;
    Hashtbl.add parent src (-1, ' ');
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let i = Queue.take queue in
      List.iter
        (fun (j, _, byte) ->
           if inside j && not (Hashtbl.mem parent j) then begin
             Hashtbl.add parent j (i, byte);
             if j = dst then found := true else Queue.add j queue
           end)
        p.p_adj.(i)
    done;
    if not !found then None
    else begin
      let buf = Buffer.create 16 in
      let rec walk i =
        match Hashtbl.find parent i with
        | -1, _ -> ()
        | prev, byte ->
          walk prev;
          Buffer.add_char buf byte
      in
      walk dst;
      Some (Buffer.contents buf)
    end
  end

let eda_candidates (a : aut) (p : product) : eda_candidate list =
  let comp, ncomp =
    scc_of p.p_count (fun i -> List.map (fun (j, _, _) -> j) p.p_adj.(i))
  in
  let members = Array.make ncomp [] in
  for i = p.p_count - 1 downto 0 do
    members.(comp.(i)) <- i :: members.(comp.(i))
  done;
  let diag = Array.make ncomp (-1) in
  let amb_edge = Array.make ncomp None in
  for i = 0 to p.p_count - 1 do
    let x, y = p.p_states.(i) in
    if x = y && x < a.nstates && diag.(comp.(i)) = -1 then
      diag.(comp.(i)) <- i;
    List.iter
      (fun (j, amb, byte) ->
         if amb && comp.(j) = comp.(i) && amb_edge.(comp.(i)) = None then
           amb_edge.(comp.(i)) <- Some (i, j, byte))
      p.p_adj.(i)
  done;
  let candidates = ref [] in
  for c = 0 to ncomp - 1 do
    match diag.(c), amb_edge.(c) with
    | d, Some (u, v, byte) when d >= 0 && List.length !candidates < 4 ->
      let inside i = comp.(i) = c in
      (match product_path p ~inside ~src:d ~dst:u with
       | None -> ()
       | Some head ->
         (match product_path p ~inside ~src:v ~dst:d with
          | None -> ()
          | Some tail ->
            let word = head ^ String.make 1 byte ^ tail in
            if word <> "" then begin
              let anchor = fst p.p_states.(d) in
              let core =
                List.sort_uniq compare
                  (List.concat_map
                     (fun i ->
                        let x, y = p.p_states.(i) in
                        List.filter (fun s -> s < a.nstates) [ x; y ])
                     members.(c))
              in
              candidates :=
                { anchor; word; core_states = core } :: !candidates
            end))
    | _ -> ()
  done;
  List.rev !candidates

(* --- IDA: cube-automaton pump pairs ------------------------------------ *)

type pump_pair = {
  pp_p : int;
  pp_q : int;
  pp_word : string;
  pp_states : int list; (* states involved, for span / fragment marking *)
}

(* Single-automaton facts: consuming-state SCCs and reachability. *)
let state_sccs (a : aut) : int array * int =
  scc_of a.nstates (fun s -> List.map (fun e -> e.edst) a.out.(s))

let reach_set (a : aut) (src : int) : bool array =
  let seen = Array.make (a.nstates + 1) false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun e -> go e.edst) a.out.(s)
    end
  in
  go src;
  seen

(* Does some word v witness p ->v-> p, p ->v-> q, q ->v-> q? BFS over
   the cube (x, y, z) from (p, p, q) to (p, q, q), x in SCC(p), z in
   SCC(q). Returns the word and the states touched. *)
let cube_pump (a : aut) (comp : int array) ~(budget : int ref) (pp : int)
    (qq : int) : (string * int list) option =
  let exception Found in
  let n1 = a.nstates + 1 in
  let pack x y z = ((x * n1) + y) * n1 + z in
  let parent = Hashtbl.create 256 in
  let queue = Queue.create () in
  let start = pack pp pp qq and target = pack pp qq qq in
  Hashtbl.add parent start (-1, ' ');
  Queue.add (pp, pp, qq) queue;
  let found = ref false in
  (try
     while (not !found) && not (Queue.is_empty queue) do
       let x, y, z = Queue.take queue in
       List.iter
         (fun e1 ->
            if comp.(e1.edst) = comp.(pp) then
              List.iter
                (fun e2 ->
                   if meet_byte a e1.cls e2.cls <> no_byte then
                     let both = inter a.classes.(e1.cls) a.classes.(e2.cls) in
                     List.iter
                       (fun e3 ->
                          decr budget;
                          if !budget <= 0 then raise Exit;
                          if comp.(e3.edst) = comp.(qq) then begin
                            match pick_byte (inter both a.classes.(e3.cls)) with
                            | None -> ()
                            | Some byte ->
                              let key = pack e1.edst e2.edst e3.edst in
                              if not (Hashtbl.mem parent key) then begin
                                Hashtbl.add parent key (pack x y z, byte);
                                if key = target then raise Found
                                else Queue.add (e1.edst, e2.edst, e3.edst) queue
                              end
                          end)
                       a.out.(z))
                a.out.(y))
         a.out.(x)
     done
   with
   | Exit -> ()
   | Found -> found := true);
  if not !found then None
  else begin
    let buf = Buffer.create 16 in
    let states = ref [] in
    let rec walk key =
      let x = key / (n1 * n1) and rest = key mod (n1 * n1) in
      states := x :: (rest / n1) :: (rest mod n1) :: !states;
      match Hashtbl.find parent key with
      | -1, _ -> ()
      | prev, byte ->
        walk prev;
        Buffer.add_char buf byte
    in
    walk target;
    Some (Buffer.contents buf, List.sort_uniq compare !states)
  end

let ida_pairs (a : aut) : pump_pair list * int * bool =
  let comp, _ = state_sccs a in
  (* Loop states: on a consuming cycle (an out-edge stays in the SCC). *)
  let loops = ref [] in
  for s = a.nstates - 1 downto 0 do
    if a.reachable.(s)
       && List.exists (fun e -> comp.(e.edst) = comp.(s)) a.out.(s)
    then loops := s :: !loops
  done;
  let loops = !loops in
  let reach = Hashtbl.create 16 in
  let reach_of s =
    match Hashtbl.find_opt reach s with
    | Some r -> r
    | None ->
      let r = reach_set a s in
      Hashtbl.add reach s r;
      r
  in
  let budget = ref cube_total_budget in
  let budget_hit = ref false in
  let pairs = ref [] in
  let tried = ref 0 in
  List.iter
    (fun p ->
       List.iter
         (fun q ->
            if p <> q && !tried < max_ida_pairs && !budget > 0 then begin
              incr tried;
              if (reach_of p).(q) then begin
                let pair_budget = ref (min cube_pair_budget !budget) in
                let before = !pair_budget in
                (match cube_pump a comp ~budget:pair_budget p q with
                 | Some (word, states) when word <> "" ->
                   pairs :=
                     { pp_p = p; pp_q = q; pp_word = word; pp_states = states }
                     :: !pairs
                 | _ -> ());
                budget := !budget - (before - !pair_budget);
                if !pair_budget <= 0 then budget_hit := true
              end
            end)
         loops)
    loops;
  let pairs = List.rev !pairs in
  (* Degree: longest chain of pump pairs linked by q_i ->* p_{i+1}. *)
  let parr = Array.of_list pairs in
  let np = Array.length parr in
  let succ i =
    let ri = reach_of parr.(i).pp_q in
    let out = ref [] in
    for j = np - 1 downto 0 do
      if j <> i && ri.(parr.(j).pp_p) then out := j :: !out
    done;
    !out
  in
  let memo = Array.make np 0 in
  let on_stack = Array.make np false in
  let cyclic = ref false in
  let rec longest i =
    if memo.(i) > 0 then memo.(i)
    else if on_stack.(i) then begin
      cyclic := true;
      0
    end
    else begin
      on_stack.(i) <- true;
      let best =
        List.fold_left (fun acc j -> max acc (longest j)) 0 (succ i)
      in
      on_stack.(i) <- false;
      memo.(i) <- 1 + best;
      memo.(i)
    end
  in
  let degree = ref 0 in
  for i = 0 to np - 1 do
    degree := max !degree (longest i)
  done;
  let degree = if !cyclic then min np max_chain_degree else !degree in
  (pairs, degree, !budget_hit)

(* --- Witness synthesis & validation ------------------------------------ *)

(* Shortest byte path root ->* target over composite edges. *)
let root_path (a : aut) (target : int) : string option =
  if target = a.nstates then Some ""
  else begin
    let parent = Array.make (a.nstates + 1) None in
    let queue = Queue.create () in
    Queue.add a.nstates queue;
    parent.(a.nstates) <- Some (-1, ' ');
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let s = Queue.take queue in
      List.iter
        (fun e ->
           if parent.(e.edst) = None then
             let byte = meet_byte a e.cls e.cls in
             if byte <> no_byte then begin
               parent.(e.edst) <- Some (s, Char.chr byte);
               if e.edst = target then found := true else Queue.add e.edst queue
             end)
        a.out.(s)
    done;
    if not !found then None
    else begin
      let buf = Buffer.create 16 in
      let rec walk s =
        match parent.(s) with
        | Some (-1, _) | None -> ()
        | Some (prev, byte) ->
          walk prev;
          Buffer.add_char buf byte
      in
      walk target;
      Some (Buffer.contents buf)
    end
  end

let span_of_states (a : aut) (states : int list) : int * int =
  List.fold_left
    (fun (l, r) s ->
       let sl, sr = a.spans.(s) in
       (min l sl, max r sr))
    (max_int, 0) states
  |> fun (l, r) -> if l = max_int then (0, 0) else (l, r)

(* Priority-faithful backtracking cost simulation over the exact engine
   NFA: depth-first in successor priority order, stopping at the first
   accept (as the speculative core does), with an on-path (state, pos)
   guard standing in for the core's zero-width-iteration cutoff. The
   step count is the attempt cost shape we validate growth against. *)
let backtrack_cost ?(budget = sim_budget) (nfa : E.Nfa.t) (s : string) : int =
  let steps = ref 0 in
  let len = String.length s in
  (* On-path visit marks per state: a state may appear TWICE at the
     same position on one path (exiting an inner loop, looping the
     outer quantifier and re-entering — an iteration that consumed
     input upstream), but not a third time: that would be a zero-width
     iteration the core's cutoff forbids. Mirrors the composite-edge
     enumeration above. *)
  let mark1 = Array.make (Array.length nfa.E.Nfa.nodes) (-1) in
  let mark2 = Array.make (Array.length nfa.E.Nfa.nodes) (-1) in
  let exception Done in
  let exception Out_of_budget in
  let rec go st pos =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    match nfa.E.Nfa.nodes.(st) with
    | E.Nfa.Accept -> raise Done
    | E.Nfa.Consume (cls, next) ->
      if pos < len && Charset.mem s.[pos] cls then go next (pos + 1)
    | E.Nfa.Eps succs ->
      if mark1.(st) = pos then begin
        if mark2.(st) <> pos then begin
          let saved = mark2.(st) in
          mark2.(st) <- pos;
          List.iter (fun t -> go t pos) succs;
          mark2.(st) <- saved
        end
      end
      else begin
        let saved = mark1.(st) in
        mark1.(st) <- pos;
        List.iter (fun t -> go t pos) succs;
        mark1.(st) <- saved
      end
  in
  (try go nfa.E.Nfa.start 0 with Done | Out_of_budget -> ());
  !steps

(* Pump counts used for validation; the pumping harness in test/support
   replays the same schedule against the real Core. *)
let exp_pumps = (3, 6, 12)
let poly_pumps = (8, 16, 32)
let no_match_pumps = [ 0; 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48 ]

let candidate_suffixes (a : aut) : string list =
  let all = Array.fold_left Charset.union Charset.empty a.classes in
  let dead = Charset.complement ~alphabet_size:256 all in
  let dead_bytes =
    match pick_byte dead with
    | Some c -> [ String.make 1 c; String.make 2 c ]
    | None -> []
  in
  let fallback =
    List.map (String.make 1) [ '\n'; '\x00'; '!'; '~'; 'q'; 'Z'; '0'; '\xff' ]
  in
  dead_bytes @ fallback @ [ "" ]

let never_matches (nfa : E.Nfa.t) (w : witness) : bool =
  List.for_all
    (fun k -> not (E.Pike_vm.matches nfa (attack_string ~pumps:k w)))
    no_match_pumps

let validates_exponential (nfa : E.Nfa.t) (w : witness) : bool =
  let k1, k2, k3 = exp_pumps in
  let c k = backtrack_cost nfa (attack_string ~pumps:k w) in
  let c1 = c k1 and c2 = c k2 and c3 = c k3 in
  c3 >= sim_budget || (c1 > 0 && c2 >= 3 * c1 && c3 >= 24 * c1)

let validates_polynomial (nfa : E.Nfa.t) (w : witness) : bool =
  let k1, k2, k3 = poly_pumps in
  let c k = backtrack_cost nfa (attack_string ~pumps:k w) in
  let c1 = c k1 and c2 = c k2 and c3 = c k3 in
  c3 >= sim_budget || (c1 > 0 && c3 >= 6 * c1 && c3 >= 2 * c2 && c3 >= 200)

(* Try suffix candidates until one both never matches and shows the
   claimed growth. *)
let find_witness (a : aut) (nfa : E.Nfa.t) ~(validate : E.Nfa.t -> witness -> bool)
    ~(prefix : string) ~(pump : string) ~(span : int * int) : witness option =
  let pump_left, pump_right = span in
  let rec try_suffixes = function
    | [] -> None
    | suffix :: rest ->
      let w = { prefix; pump; suffix; pump_left; pump_right } in
      if never_matches nfa w && validate nfa w then Some w
      else try_suffixes rest
  in
  try_suffixes (candidate_suffixes a)

(* --- Top-level analysis ------------------------------------------------ *)

let analyze_exn (spanned : Spanned.t) : t =
  let attempt mcap ocap =
    let expanded, capped = expand ~mcap ~ocap spanned in
    (automaton (machine_of_spanned expanded), capped)
  in
  let a, capped =
    try attempt mandatory_cap optional_cap
    with Budget _ ->
      (* second chance with aggressive caps before giving up; caps only
         lose findings (witnesses check against the exact NFA) *)
      let a, _ = attempt 2 1 in
      (a, true)
  in
  let product, product_budget_hit = build_product a in
  let edas = eda_candidates a product in
  let pairs, degree, ida_budget_hit = ida_pairs a in
  let budget_hit = a.budget_hit || product_budget_hit || ida_budget_hit in
  let notes = ref [] in
  if capped then
    notes := "bounded repeats expanded under caps" :: !notes;
  if budget_hit then
    notes := "a search budget was hit; findings may be incomplete" :: !notes;
  let eda = edas <> [] in
  let base ?witness verdict =
    { verdict; witness; eda; ida_degree = degree; states = a.nstates;
      budget_hit; notes = List.rev !notes }
  in
  if (not eda) && pairs = [] then base Linear
  else begin
    match E.Nfa.of_ast ~max_states:exact_nfa_states (Spanned.strip spanned) with
    | Error _ ->
      notes :=
        "ambiguity detected but the exact NFA is too large to validate a \
         witness; verdict stays linear"
        :: !notes;
      { (base Linear) with budget_hit = true }
    | Ok nfa ->
      let try_eda () =
        List.find_map
          (fun (c : eda_candidate) ->
             match root_path a c.anchor with
             | None -> None
             | Some prefix ->
               find_witness a nfa ~validate:validates_exponential ~prefix
                 ~pump:c.word ~span:(span_of_states a c.core_states))
          edas
      in
      let try_ida () =
        List.find_map
          (fun (pp : pump_pair) ->
             match root_path a pp.pp_p with
             | None -> None
             | Some prefix ->
               find_witness a nfa ~validate:validates_polynomial ~prefix
                 ~pump:pp.pp_word ~span:(span_of_states a pp.pp_states))
          pairs
      in
      (match (if eda then try_eda () else None) with
       | Some w -> base ~witness:w Exponential
       | None ->
         (* An exponential structure that cannot be validated may still
            be exploitably polynomial (or, with EDA, a pump pair may
            validate where the diagonal cycle did not). *)
         (match try_ida () with
          | Some w -> base ~witness:w (Polynomial (max 1 degree))
          | None ->
            if eda || pairs <> [] then
              notes :=
                "ambiguous automaton, but no failing continuation \
                 validated a witness — worst-case matching stays linear \
                 for this pattern in isolation"
                :: !notes;
            base Linear))
  end

let analyze (spanned : Spanned.t) : t =
  if Ast.has_extended (Spanned.strip spanned) then
    { unanalyzed with
      notes =
        [ "extended operators (intersection, complement, lookaround) are \
           outside the backtracking cost model; the derivative engine \
           serves these patterns in worst-case linear time per position" ] }
  else
  try analyze_exn spanned with
  | Budget m ->
    { verdict = Linear; witness = None; eda = false; ida_degree = 0;
      states = 0; budget_hit = true;
      notes = [ Printf.sprintf "analysis out of budget (%s)" m ] }
  | e ->
    { verdict = Linear; witness = None; eda = false; ida_degree = 0;
      states = 0; budget_hit = true;
      notes = [ "analysis error: " ^ Printexc.to_string e ] }

let pattern (src : string) : (t, string) result =
  match F.Parser.parse_spanned_result src with
  | Ok spanned -> Ok (analyze spanned)
  | Error msg -> Error msg

let pp ppf (t : t) =
  Fmt.pf ppf "%a (eda=%b, ida-degree=%d, states=%d%s)%a" pp_verdict t.verdict
    t.eda t.ida_degree t.states
    (if t.budget_hit then ", budget-hit" else "")
    (fun ppf -> function
       | None -> ()
       | Some w ->
         Fmt.pf ppf "@ witness prefix=%S pump=%S suffix=%S at %d..%d" w.prefix
           w.pump w.suffix w.pump_left w.pump_right)
    t.witness

(* --- Backtracking-free program fragments -------------------------------- *)

module I = Alveare_isa.Instruction
module Cfg = Alveare_isa.Cfg

(* Decode the byte classes a base instruction consumes, in order: AND
   references match consecutive bytes (one Sym per byte); OR / RANGE
   consume one byte, honouring NOT. *)
let base_classes (i : I.t) : Charset.t list =
  match i.I.base, i.I.reference with
  | Some I.And, I.Ref_chars s ->
    List.init (String.length s) (fun k -> Charset.singleton s.[k])
  | Some I.Or, I.Ref_chars s ->
    let set = Charset.of_chars (List.init (String.length s) (String.get s)) in
    [ (if i.I.neg then Charset.complement ~alphabet_size:256 set else set) ]
  | Some I.Range, I.Ref_chars s ->
    let rec ranges k acc =
      if k + 1 >= String.length s then List.rev acc
      else ranges (k + 2) ((Char.code s.[k], Char.code s.[k + 1]) :: acc)
    in
    let set = Charset.of_ranges (ranges 0 []) in
    [ (if i.I.neg then Charset.complement ~alphabet_size:256 set else set) ]
  | _ -> []

(* Build the analysis machine over the epsilon sub-graph of the CFG:
   one Sym per consumed byte of a base instruction (spans double as the
   instruction's address interval), epsilon nodes everywhere else.
   Loop-back edges of BOUNDED quantifiers are dropped: their counters
   admit only finitely many iterations, so they contribute finite
   ambiguity, and keeping them would fabricate unbounded pumps. *)
let machine_of_program (cfg : Cfg.t) : machine =
  let program = cfg.Cfg.program in
  let len = Array.length program in
  if len = 0 then { nodes = [| Stop |]; start = 0 }
  else begin
    let open_of_close = Hashtbl.create 16 in
    List.iter
      (fun (o, c) -> Hashtbl.replace open_of_close c o)
      cfg.Cfg.pairs;
    let bounded_loop (e : Cfg.edge) =
      e.Cfg.role = Cfg.Loop_back
      && (match Hashtbl.find_opt open_of_close e.Cfg.src with
          | Some o ->
            (match cfg.Cfg.kinds.(o) with
             | Cfg.Open_quant { qmax = Some _; _ } -> true
             | _ -> false)
          | None -> false)
    in
    let b = { store = Array.make (2 * len) Stop; len = 0 } in
    (* entry.(a) = node id of address a; allocate all entries first so
       successor lists can be filled in a second pass. *)
    let entry = Array.init len (fun _ -> badd b (Eps [])) in
    for a = 0 to len - 1 do
      let succs =
        List.filter_map
          (fun (e : Cfg.edge) ->
             if bounded_loop e || e.Cfg.dst < 0 || e.Cfg.dst >= len then None
             else Some entry.(e.Cfg.dst))
          (Cfg.successors cfg a)
      in
      match cfg.Cfg.kinds.(a) with
      | Cfg.Eor -> bset b entry.(a) Stop
      | Cfg.Junk -> bset b entry.(a) (Eps [])
      | Cfg.Open_quant _ | Cfg.Open_alt _ | Cfg.Close _ ->
        bset b entry.(a) (Eps succs)
      | Cfg.Base _ ->
        (match base_classes program.(a) with
         | [] -> bset b entry.(a) (Eps succs)
         | classes ->
           let fanout = badd b (Eps succs) in
           (* chain of Syms ending at the fanout, entry first *)
           let rec chain = function
             | [] -> fanout
             | cls :: rest ->
               let next = chain rest in
               badd b (Sym { cls; left = a; right = a + 1; next })
           in
           (match classes with
            | first :: rest ->
              let next = chain rest in
              bset b entry.(a)
                (Sym { cls = first; left = a; right = a + 1; next })
            | [] -> ()))
    done;
    { nodes = Array.sub b.store 0 b.len; start = entry.(0) }
  end

let program_fragments (program : Alveare_isa.Program.t) : (int * int) list =
  let len = Array.length program in
  if len = 0 then []
  else begin
    try
      let cfg = Cfg.build program in
      let a = automaton (machine_of_program cfg) in
      let product, product_budget_hit = build_product a in
      let edas = eda_candidates a product in
      let pairs, _, ida_budget_hit = ida_pairs a in
      if a.budget_hit || product_budget_hit || ida_budget_hit then
        (* a truncated search can miss pumps — claim nothing *)
        []
      else begin
        let unsafe = Array.make len false in
        let mark s =
          let l, _ = a.spans.(s) in
          if l >= 0 && l < len then unsafe.(l) <- true
        in
        List.iter (fun (c : eda_candidate) -> List.iter mark c.core_states) edas;
        List.iter (fun (pp : pump_pair) -> List.iter mark pp.pp_states) pairs;
        (* Widen to the enclosing sub-REs: the OPEN/CLOSE machinery
           driving an ambiguous loop backtracks with it. *)
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (o, c) ->
               let lo = min o c and hi = max o c in
               let any = ref false in
               for x = lo to hi do
                 if x < len && unsafe.(x) then any := true
               done;
               if !any then
                 for x = lo to min (len - 1) hi do
                   if not unsafe.(x) then begin
                     unsafe.(x) <- true;
                     changed := true
                   end
                 done)
            cfg.Cfg.pairs
        done;
        (* Complement into maximal [lo, hi) intervals. *)
        let out = ref [] in
        let run_start = ref (-1) in
        for x = 0 to len - 1 do
          if not unsafe.(x) then begin
            if !run_start = -1 then run_start := x
          end
          else if !run_start >= 0 then begin
            out := (!run_start, x) :: !out;
            run_start := -1
          end
        done;
        if !run_start >= 0 then out := (!run_start, len) :: !out;
        List.rev !out
      end
    with Budget _ | Invalid_argument _ -> []
  end
