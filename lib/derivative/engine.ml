(* Priority-faithful Brzozowski-derivative matcher, run as a lazy DFA.

   Derivatives decide membership, which is leftmost-LONGEST; PCRE is
   leftmost-FIRST ("a|ab" on "ab" matches "a"). So a state r is split
   as in the Backtrack CPS matcher, PCRE's zero-width iteration cutoff
   included: split r = (pre, acc, post), the leaves of r's
   epsilon-closure before its first epsilon-accept (each must consume a
   byte), whether there is one, and the leaves after it. The derivative
   keeps that order: d (r . s) c = (d r0 . s) | d s | (d r1 . s) for a
   nullable r split as (r0, _, r1). Per start the driver records an
   accept at p and goes on with pre alone, the continuations that
   outrank it. Intersection and complement have set semantics and match
   longest: their nullable split is (r minus eps, true, bot).

   Only lookarounds make the rules read the position, so a scan first
   walks each Look over the input once, inner Looks first: (?<=r) holds
   at p iff input[0..p) is in Σ*·r (a forward walk), (?=r) iff the
   reverse of input[p..n) is in Σ*·rev(r) (a backward walk; [rev] keeps
   nested Looks in place, as a zero-width test reads the same boundary
   either way); negation applies as the bit is stored. The rules then
   read only the MASK of Looks true at the position, so results are
   cached by (node, mask) for the pattern's lifetime: the rows
   {acc; cont; next.(minterm)} of a lazy DFA over derivative nodes,
   minterms being the byte classes no set of the pattern splits. A scan
   costs one walk per lookaround plus the per-start row walks.

   As in the lazy-DFA overlay, past [max_entries] states, memo entries
   and row cells the tables are dropped and the walk goes on from the
   current node; an arena past [max_nodes] at the start of a scan is
   cleared and the root rebuilt from the AST. Both count as a flush. *)

open Alveare_frontend
module R = Regex
module Semantics = Alveare_engine.Semantics

(* A DFA state and its rows, one per mask seen there: [acc] is the
   epsilon-accept (a walker's: nullability), [cont] what goes on
   consuming (pre after an accept), [next] the successor per minterm,
   [unfilled] until first taken. *)
type st = { node : R.node; mutable rows : row list }
and row = { key : int; acc : bool; cont : R.node; next : st array }

(* The driver's states ([restart = None]), or a Look walker's, which
   runs Σ*·s by restarting [Some s] at each position. *)
type auto = { states : (int, st) Hashtbl.t; restart : R.node option }

type tables = {
  looks : (R.node * Ast.look * R.node) array;  (* Look, kind, body; inner first *)
  index : (int, int) Hashtbl.t;  (* Look id -> index in [looks] *)
  walkers : auto array;
  main : auto;
  cls : string;                  (* byte -> minterm, as a char code *)
  reps : string;                 (* minterm -> one of its bytes *)
  unfilled : st;
  masks : (int * int, int) Hashtbl.t;  (* past 62 Looks: interned masks *)
  unmask : (int, int * int) Hashtbl.t;
  mutable start : st;
}

type t = {
  ast : Ast.t;
  arena : R.t;
  mutable root : R.node;
  mutable tables : tables option;  (* built on the first scan *)
  nul : (int * int, bool) Hashtbl.t;
  spl : (int * int, R.node * bool * R.node) Hashtbl.t;
  der : (int * int * char, R.node) Hashtbl.t;
  mutable entries : int;           (* states, memo, row cells since a flush *)
  mutable flushes : int;
  max_entries : int; max_nodes : int;
  mutable key : int;               (* the mask the rules read *)
}

let create max_entries max_nodes ast =
  let arena = R.create () in
  let root = Mutex.protect (R.lock arena) (fun () -> R.of_ast arena ast) in
  { ast; arena; root; tables = None; nul = Hashtbl.create 16;
    spl = Hashtbl.create 16; der = Hashtbl.create 16; entries = 0;
    flushes = 0; max_entries; max_nodes; key = 0 }

module Make (C : sig val max_entries : int val max_nodes : int end) = struct
  let of_ast = create C.max_entries C.max_nodes
  let of_pattern ?(extended = true) p = of_ast (Desugar.pattern_exn ~extended p)
end

include Make (struct let max_entries = 1 lsl 16 let max_nodes = 1 lsl 16 end)

let state_count e = R.size e.arena
let look_free e = e.root.R.look_free
let arena e = e.arena
let root e = e.root
let flushes e = e.flushes

(* Mask [k] plus Look [i]: a bit, or past 62 Looks an interned (k, i)
   pair — Looks join in ascending order, so a pair chain names a set. *)
let add tb k i =
  if Array.length tb.looks <= 62 then k lor (1 lsl i)
  else
    match Hashtbl.find_opt tb.masks (k, i) with
    | Some k' -> k'
    | None ->
      let k' = Hashtbl.length tb.masks + 1 in
      Hashtbl.add tb.masks (k, i) k';
      Hashtbl.add tb.unmask k' (k, i);
      k'

let rec holds tb k i =
  if Array.length tb.looks <= 62 then k land (1 lsl i) <> 0
  else k <> 0 && (let k0, j = Hashtbl.find tb.unmask k in j = i || holds tb k0 i)

(* --- Split and derivative under a mask --------------------------------- *)

let memo e tbl k f =
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
    let r = f () in
    Hashtbl.replace tbl k r;
    e.entries <- e.entries + 1;
    r

(* Look-free results hold under every mask. *)
let mask e (n : R.node) = if n.R.look_free then 0 else e.key

let rec nullable e (n : R.node) =
  if n.R.look_free then n.R.null
  else
    memo e e.nul (n.R.id, e.key) (fun () ->
        match n.R.desc with
        | R.Look _ ->
          let tb = Option.get e.tables in
          holds tb e.key (Hashtbl.find tb.index n.R.id)
        | R.Cat (x, y) -> nullable e x && nullable e y
        | R.Alt xs -> List.exists (nullable e) xs
        | R.And xs -> List.for_all (nullable e) xs
        | R.Not x -> not (nullable e x)
        | R.Rep (x, lo, _, _) -> lo = 0 || nullable e x
        | R.Bot | R.Eps | R.Chars _ -> n.R.null)

let rec split e (n : R.node) : R.node * bool * R.node =
  memo e e.spl (n.R.id, mask e n) (fun () ->
      let a = e.arena in
      let bot = R.bot a in
      match n.R.desc with
      | R.Bot -> (n, false, n)
      | R.Eps -> (bot, true, bot)
      | R.Chars _ -> (n, false, bot)
      | R.Cat _ when not (nullable e n) -> (n, false, bot)
      | R.Alt xs ->
        (* the first accepting branch accepts; later ones land in post *)
        let rec go = function
          | [] -> (bot, false, bot)
          | x :: rest ->
            let x0, xa, x1 = split e x in
            if xa then (x0, true, R.alt a (x1 :: rest))
            else
              let r0, ra, r1 = go rest in
              (R.alt a [ x0; r0 ], ra, r1)
        in
        go xs
      | R.Cat (x, y) ->
        (* leaves: (x-pre . y) ++ y's own ++ (x-post . y) *)
        let x0, _, x1 = split e x and y0, _, y1 = split e y in
        (R.alt a [ R.cat a x0 y; y0 ], true, R.alt a [ y1; R.cat a x1 y ])
      | R.Rep (x, lo, hi, g) when lo > 0 ->
        (* unroll one mandatory copy; the Cat rule orders the rest *)
        split e (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) g))
      | R.Rep (x, _, hi, g) ->
        let tail = R.rep a x 0 (R.pred_opt hi) g in
        if not (nullable e x) then
          if g then (R.cat a x tail, true, bot) else (bot, true, R.cat a x tail)
        else
          let x0, _, x1 = split e x in
          (* greedy: the body's first zero-width leaf exits the loop
             (PCRE cutoff); lazy: exit first, zero-width iterations
             pruned *)
          if g then (R.cat a x0 tail, true, R.cat a x1 tail)
          else (bot, true, R.cat a (R.alt a [ x0; x1 ]) tail)
      | R.And _ | R.Not _ ->
        (* prefer-continue; d (r & ?~eps) reduces to d r *)
        if nullable e n then (R.inter a [ n; R.neg a (R.eps a) ], true, bot)
        else (n, false, bot)
      | R.Look _ -> (bot, nullable e n, bot))

let rec deriv e (n : R.node) (c : char) : R.node =
  memo e e.der (n.R.id, mask e n, c) (fun () ->
      let a = e.arena in
      match n.R.desc with
      | R.Bot | R.Eps | R.Look _ -> R.bot a
      | R.Chars s -> if Charset.mem c s then R.eps a else R.bot a
      | R.Alt xs -> R.alt a (List.map (fun x -> deriv e x c) xs)
      | R.And xs -> R.inter a (List.map (fun x -> deriv e x c) xs)
      | R.Not x -> R.neg a (deriv e x c)
      | R.Cat (x, y) when nullable e x ->
        let x0, _, x1 = split e x in
        R.alt a [ R.cat a (deriv e x0 c) y; deriv e y c; R.cat a (deriv e x1 c) y ]
      | R.Cat (x, y) -> R.cat a (deriv e x c) y
      | R.Rep (x, lo, hi, g) when lo > 0 ->
        deriv e (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) g)) c
      | R.Rep (x, _, hi, g) ->
        (* the zero-width leaf contributes nothing *)
        R.cat a (deriv e x c) (R.rep a x 0 (R.pred_opt hi) g))

(* Partial application to an arena shares one memo across calls. *)
let deriv_free arena =
  let e = { (create 0 0 Ast.Empty) with arena } in
  fun (n : R.node) c ->
    if not n.R.look_free then
      invalid_arg "Derivative.Engine.deriv_free: node contains lookarounds";
    deriv e n c

(* The nodes below [root], children first. *)
let below (root : R.node) =
  let seen = Hashtbl.create 64 in
  let rec go acc (n : R.node) =
    if Hashtbl.mem seen n.R.id then acc
    else begin
      Hashtbl.add seen n.R.id ();
      n :: List.fold_left go acc (match n.R.desc with
        | R.Bot | R.Eps | R.Chars _ -> []
        | R.Cat (x, y) -> [ x; y ]
        | R.Alt xs | R.And xs -> xs
        | R.Not x | R.Rep (x, _, _, _) | R.Look (_, x) -> [ x ])
    end
  in
  List.rev (go [] root)

let intern e au (n : R.node) =
  match Hashtbl.find_opt au.states n.R.id with
  | Some s -> s
  | None ->
    let s = { node = n; rows = [] } in
    Hashtbl.add au.states n.R.id s;
    e.entries <- e.entries + 1;
    s

let build e =
  let a = e.arena and nodes = below e.root in
  let look (n : R.node) = match n.R.desc with R.Look (l, b) -> Some (n, l, b) | _ -> None in
  let looks = Array.of_list (List.filter_map look nodes) in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i ((l : R.node), _, _) -> Hashtbl.replace index l.R.id i) looks;
  let rec rev (n : R.node) =
    match n.R.desc with
    | R.Bot | R.Eps | R.Chars _ | R.Look _ -> n
    | R.Cat (x, y) -> R.cat a (rev y) (rev x)
    | R.Alt xs -> R.alt a (List.map rev xs)
    | R.And xs -> R.inter a (List.map rev xs)
    | R.Not x -> R.neg a (rev x)
    | R.Rep (x, lo, hi, g) -> R.rep a (rev x) lo hi g
  in
  let walker (_, (l : Ast.look), b) =
    { states = Hashtbl.create 16; restart = Some (if l.Ast.behind then b else rev b) } in
  (* minterms: bytes with the same membership in every set *)
  let cls, reps = Charset.byte_classes (List.filter_map (fun (n : R.node) ->
      match n.R.desc with R.Chars s -> Some (fun c -> Charset.mem c s) | _ -> None) nodes) in
  let main = { states = Hashtbl.create 16; restart = None } in
  { looks; index; walkers = Array.map walker looks; main; cls; reps;
    unfilled = { node = R.bot a; rows = [] }; masks = Hashtbl.create 8;
    unmask = Hashtbl.create 8; start = intern e main e.root }

(* Drop the memo and every state. *)
let flush e =
  Hashtbl.reset e.nul;
  Hashtbl.reset e.spl;
  Hashtbl.reset e.der;
  e.entries <- 0;
  e.flushes <- e.flushes + 1;
  Option.iter (fun tb ->
      Array.iter (fun au -> Hashtbl.reset au.states) tb.walkers;
      Hashtbl.reset tb.main.states;
      tb.start <- intern e tb.main e.root) e.tables

(* --- Rows and walks ----------------------------------------------------- *)

let row e tb au st k =
  match st.rows with
  | r :: _ when r.key = k -> r
  | rows ->
    match List.find_opt (fun (r : row) -> r.key = k) rows with
    | Some r -> r
    | None ->
      let st = if e.entries < e.max_entries then st else (flush e; intern e au st.node) in
      e.key <- k;
      let acc, cont =
        match au.restart with
        | None -> let pre, acc, _ = split e st.node in (acc, if acc then pre else st.node)
        | Some _ -> (nullable e st.node, st.node)
      in
      let r = { key = k; acc; cont; next = Array.make (String.length tb.reps) tb.unfilled } in
      st.rows <- r :: st.rows;
      e.entries <- e.entries + 1 + Array.length r.next;
      r

let next e tb au r m =
  if r.next.(m) == tb.unfilled then begin
    e.key <- r.key;
    let d = deriv e r.cont tb.reps.[m] in
    let members (n : R.node) = match n.R.desc with R.Alt xs -> xs | _ -> [ n ] in
    r.next.(m) <- intern e au (match au.restart with
      | None -> d
      | Some s ->
        (* only the language counts: members sorted by id *)
        R.alt e.arena (List.sort_uniq (fun (x : R.node) y -> compare x.R.id y.R.id)
                         (members d @ members s)))
  end;
  r.next.(m)

(* Walk Look [i] over [input], adding it to the masks where it holds;
   the masks then hold every Look before [i] (its inner ones). *)
let walk e tb input keys i =
  let au = tb.walkers.(i) and n = String.length input in
  let _, l, _ = tb.looks.(i) in
  let byte p = Char.code tb.cls.[Char.code (String.unsafe_get input p)] in
  let rec go st p =
    let r = row e tb au st keys.(p) in
    if r.acc <> l.Ast.negative then keys.(p) <- add tb keys.(p) i;
    if l.Ast.behind && p < n then go (next e tb au r (byte p)) (p + 1)
    else if (not l.Ast.behind) && p > 0 then go (next e tb au r (byte (p - 1))) (p - 1)
  in
  go (intern e au (Option.get au.restart)) (if l.Ast.behind then 0 else n)

(* Under the lock: rebuild an overgrown arena, build the tables, walk
   every Look, and hand [f] the end of the leftmost-first match from a
   start (-1 for none). *)
let with_scan e input f =
  Mutex.protect (R.lock e.arena) (fun () ->
      let masks = match e.tables with Some tb -> Hashtbl.length tb.masks | None -> 0 in
      if R.size e.arena + masks > e.max_nodes then begin
        R.clear e.arena;
        e.root <- R.of_ast e.arena e.ast;
        e.tables <- None;
        flush e
      end;
      let tb = match e.tables with Some tb -> tb | None -> build e in
      e.tables <- Some tb;
      let n = String.length input in
      let keys = Array.make (n + 1) 0 in
      Array.iteri (fun i _ -> walk e tb input keys i) tb.walkers;
      let rec go st best p =
        if R.is_bot st.node then best
        else
          let r = row e tb tb.main st keys.(p) in
          let best = if r.acc then p else best in
          if R.is_bot r.cont || p >= n then best
          else
            let m = Char.code tb.cls.[Char.code (String.unsafe_get input p)] in
            go (next e tb tb.main r m) best (p + 1)
      in
      f n (fun start -> go tb.start (-1) start))

(* --- Matching drivers ---------------------------------------------------- *)

let match_at e input start =
  if start < 0 || start > String.length input then
    invalid_arg "Derivative.Engine.match_at: start";
  with_scan e input (fun _ longest ->
      match longest start with -1 -> None | stop -> Some stop)

(* The leftmost match from [start] on. *)
let rec first n longest start =
  if start > n then None
  else
    let stop = longest start in
    if stop >= 0 then Some { Semantics.start; stop } else first n longest (start + 1)

let search ?(from = 0) e input = with_scan e input (fun n l -> first n l (max 0 from))

let find_all e input =
  with_scan e input (fun n longest ->
      let rec go from acc =
        match first n longest from with
        | None -> List.rev acc
        | Some span -> go (Semantics.next_scan_position span) (span :: acc)
      in
      go 0 [])

let matches e input = Option.is_some (search e input)
