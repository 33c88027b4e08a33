(* Hash-consed regular-expression nodes for the Brzozowski-derivative
   engine. Structurally identical sub-expressions intern to one node, so
   the engine's tables key on the integer id, and Antimirov-style smart
   constructors (flattening, identity laws, neutral/absorbing elements,
   duplicate elimination) keep the derivative state space finite.

   Every law must preserve PCRE leftmost-FIRST priority, not just
   language:
   - [Alt] lists keep their order and deduplicate keeping the FIRST
     occurrence (a later identical branch only retries what the earlier
     one tried); they are never sorted.
   - [And] members ARE sorted by id (set semantics: prefer-continue,
     whatever the order), but [And [x]] keeps its wrapper, and
     [Not (Not x)] is not collapsed: either collapse would swap
     prefer-continue (longest) preference for [x]'s own order.

   [null] is exact only on [look_free] nodes; on the others it depends
   on the lookarounds true at the position, which {!Engine} resolves. *)

open Alveare_frontend

type node = {
  id : int;
  desc : desc;
  look_free : bool; (* no Look anywhere below *)
  null : bool;      (* matches the empty string; valid iff [look_free] *)
}

and desc =
  | Bot                                     (* matches nothing *)
  | Eps                                     (* the empty string only *)
  | Chars of Charset.t                      (* one byte from the set *)
  | Cat of node * node                      (* right-nested *)
  | Alt of node list                        (* ordered: priority order *)
  | And of node list                        (* intersection, id-sorted *)
  | Not of node                             (* complement *)
  | Rep of node * int * int option * bool   (* body, qmin, qmax, greedy *)
  | Look of Ast.look * node                 (* zero-width predicate *)

(* Structural interning key: children by id, classes by their canonical
   sorted-disjoint range list. *)
type key =
  | KBot
  | KEps
  | KChars of (int * int) list
  | KCat of int * int
  | KAlt of int list
  | KAnd of int list
  | KNot of int
  | KRep of int * int * int option * bool
  | KLook of bool * bool * int

type t = {
  cons : (key, node) Hashtbl.t;
  mutable next_id : int; (* never reused, so ids stay unique across [clear] *)
  lock : Mutex.t;
      (* serialises interning (and the engine tables built on it) so one
         compiled pattern can be scanned from several domains *)
}

let create () = { cons = Hashtbl.create 64; next_id = 0; lock = Mutex.create () }
let size a = Hashtbl.length a.cons
let clear a = Hashtbl.reset a.cons
let lock a = a.lock

let key_of = function
  | Bot -> KBot
  | Eps -> KEps
  | Chars s -> KChars (Charset.ranges s)
  | Cat (x, y) -> KCat (x.id, y.id)
  | Alt xs -> KAlt (List.map (fun x -> x.id) xs)
  | And xs -> KAnd (List.map (fun x -> x.id) xs)
  | Not x -> KNot x.id
  | Rep (x, lo, hi, g) -> KRep (x.id, lo, hi, g)
  | Look (l, x) -> KLook (l.Ast.behind, l.Ast.negative, x.id)

let null_of = function
  | Bot | Chars _ -> false
  | Eps -> true
  | Cat (x, y) -> x.null && y.null
  | Alt xs -> List.exists (fun x -> x.null) xs
  | And xs -> List.for_all (fun x -> x.null) xs
  | Not x -> not x.null
  | Rep (_, 0, _, _) -> true
  | Rep (x, _, _, _) -> x.null
  | Look _ -> true (* placeholder — look-bearing nullability depends
                      on the position and is resolved in Engine *)

let look_free_of = function
  | Bot | Eps | Chars _ -> true
  | Cat (x, y) -> x.look_free && y.look_free
  | Alt xs | And xs -> List.for_all (fun x -> x.look_free) xs
  | Not x | Rep (x, _, _, _) -> x.look_free
  | Look _ -> false

(* Intern [desc]; assumes the arena lock is held by the caller (all the
   public entry points in Engine/Enumerate take it once). *)
let mk a desc =
  let key = key_of desc in
  match Hashtbl.find_opt a.cons key with
  | Some n -> n
  | None ->
    let n =
      { id = a.next_id; desc; look_free = look_free_of desc;
        null = null_of desc }
    in
    a.next_id <- a.next_id + 1;
    Hashtbl.add a.cons key n;
    n

(* --- Smart constructors ------------------------------------------------- *)

let bot a = mk a Bot
let eps a = mk a Eps

let is_bot n = match n.desc with Bot -> true | _ -> false
let is_eps n = match n.desc with Eps -> true | _ -> false
let is_top n = match n.desc with Not b -> is_bot b | _ -> false

let chars a set = if Charset.is_empty set then bot a else mk a (Chars set)

let rec cat a x y =
  if is_bot x || is_bot y then bot a
  else if is_eps x then y
  else if is_eps y then x
  else
    match x.desc with
    | Cat (u, v) -> cat a u (cat a v y) (* keep right-nested *)
    | _ -> mk a (Cat (x, y))

(* Ordered union: flatten, drop never-matching members, deduplicate
   keeping the FIRST occurrence. *)
let alt a xs =
  let rec flatten acc = function
    | [] -> List.rev acc
    | x :: rest ->
      (match x.desc with
       | Bot -> flatten acc rest
       | Alt ys -> flatten acc (ys @ rest)
       | _ ->
         if List.exists (fun y -> y.id = x.id) acc then flatten acc rest
         else flatten (x :: acc) rest)
  in
  match flatten [] xs with
  | [] -> bot a
  | [ one ] -> one
  | members -> mk a (Alt members)

let top a = mk a (Not (bot a))

(* Intersection: flatten, drop the universal member, absorb on a
   never-matching member, sort by id (set semantics), deduplicate. A
   singleton [And [x]] keeps its wrapper — see the header. *)
let inter a xs =
  let rec flatten acc = function
    | [] -> Some acc
    | x :: rest ->
      (match x.desc with
       | Bot -> None
       | And ys -> flatten acc (ys @ rest)
       | _ -> if is_top x then flatten acc rest else flatten (x :: acc) rest)
  in
  match flatten [] xs with
  | None -> bot a
  | Some members ->
    let members = List.sort_uniq (fun x y -> compare x.id y.id) members in
    (match members with
     | [] -> top a
     | members -> mk a (And members))

(* No [Not (Not x)] collapse — see the header. *)
let neg a x = mk a (Not x)

let pred_opt = function None -> None | Some m -> Some (m - 1)

let rep a x lo hi greedy =
  if hi = Some 0 then eps a
  else if is_eps x then eps a
  else if is_bot x then (if lo = 0 then eps a else bot a)
  else if lo = 1 && hi = Some 1 then x
  else mk a (Rep (x, lo, hi, greedy))

(* Zero-width predicates with constant bodies decide immediately:
   [(?=eps)] always holds, [(?!eps)] never; an impossible body flips
   with negation. Exact for lookbehind too ([s = p] witnesses eps). *)
let look a (l : Ast.look) x =
  if is_eps x then (if l.Ast.negative then bot a else eps a)
  else if is_bot x then (if l.Ast.negative then eps a else bot a)
  else mk a (Look (l, x))

(* --- From the frontend AST ---------------------------------------------- *)

let class_set cls = Alveare_engine.Semantics.class_set cls

let rec of_ast a (t : Ast.t) : node =
  match t with
  | Ast.Empty -> eps a
  | Ast.Char c -> chars a (Charset.singleton c)
  | Ast.Any -> chars a (class_set Desugar.dot_class)
  | Ast.Class cls -> chars a (class_set cls)
  | Ast.Group x -> of_ast a x
  | Ast.Concat xs ->
    List.fold_right (fun x acc -> cat a (of_ast a x) acc) xs (eps a)
  | Ast.Alt xs -> alt a (List.map (of_ast a) xs)
  | Ast.Repeat (x, q) -> rep a (of_ast a x) q.Ast.qmin q.Ast.qmax q.Ast.greedy
  | Ast.Inter xs -> inter a (List.map (of_ast a) xs)
  | Ast.Negate x -> neg a (of_ast a x)
  | Ast.Look (l, x) -> look a l (of_ast a x)

(* --- First-byte over-approximation -------------------------------------- *)

let full_set =
  Charset.complement ~alphabet_size:Alveare_engine.Semantics.byte_universe
    Charset.empty

(* Charset intersection, by De Morgan within the byte universe. *)
let charset_inter (x : Charset.t) (y : Charset.t) : Charset.t =
  let c = Charset.complement ~alphabet_size:Alveare_engine.Semantics.byte_universe in
  c (Charset.union (c x) (c y))

(* Bytes that can start a nonempty match — an over-approximation used by
   {!Enumerate} to bound the byte fan-out per derivative state. Only
   meaningful on look-free nodes (the [null] fields are exact there). *)
let rec first_bytes (n : node) : Charset.t =
  match n.desc with
  | Bot | Eps | Look _ -> Charset.empty
  | Chars s -> s
  | Cat (x, y) ->
    if x.null then Charset.union (first_bytes x) (first_bytes y)
    else first_bytes x
  | Alt xs ->
    List.fold_left (fun acc x -> Charset.union acc (first_bytes x))
      Charset.empty xs
  | And xs ->
    List.fold_left (fun acc x -> charset_inter acc (first_bytes x)) full_set xs
  | Not _ -> full_set
  | Rep (x, _, _, _) -> first_bytes x
