(* Reference derivative matcher for the extended operators: the
   position-memo interpreter the derivative engine's lazy DFA replaced,
   kept as a test oracle. It shares the interning arena and the smart
   constructors with {!Alveare_derivative.Engine} but evaluates every
   lookaround by rerunning its body from (or up to) the position at
   hand, memoising per (node id, position) in tables local to one
   search — quadratic on lookbehinds, but a direct transcription of the
   split / derivative rules, which is what an oracle should be.

   The three-way split and the ordered derivative are documented in
   lib/derivative/engine.ml; the rules below are the same, evaluated at
   an absolute position instead of under a lookaround truth mask. *)

open Alveare_frontend
module R = Alveare_derivative.Regex
module Semantics = Alveare_engine.Semantics

type t = {
  arena : R.t;
  root : R.node;
  (* look-free results are position independent: kept for the oracle's
     lifetime, keyed by node id (and byte) *)
  split_free : (int, R.node * bool * R.node) Hashtbl.t;
  deriv_free : (int * char, R.node) Hashtbl.t;
}

let of_ast ast =
  let arena = R.create () in
  let root = Mutex.protect (R.lock arena) (fun () -> R.of_ast arena ast) in
  { arena; root; split_free = Hashtbl.create 64; deriv_free = Hashtbl.create 64 }

let of_pattern ?(extended = true) pattern =
  of_ast (Desugar.pattern_exn ~extended pattern)

(* Per-search memo tables for the look-bearing fraction of the graph. *)
type ctx = {
  o : t;
  input : string;
  nul : (int * int, bool) Hashtbl.t;
  spl : (int * int, R.node * bool * R.node) Hashtbl.t;
  der : (int * int, R.node) Hashtbl.t;
}

let make_ctx o input =
  { o; input;
    nul = Hashtbl.create 16; spl = Hashtbl.create 16; der = Hashtbl.create 16 }

let rec nullable_at ctx (n : R.node) (p : int) : bool =
  if n.R.look_free then n.R.null
  else
    match Hashtbl.find_opt ctx.nul (n.R.id, p) with
    | Some b -> b
    | None ->
      let b =
        match n.R.desc with
        | R.Look (l, body) -> eval_look ctx l body p
        | R.Cat (x, y) -> nullable_at ctx x p && nullable_at ctx y p
        | R.Alt xs -> List.exists (fun x -> nullable_at ctx x p) xs
        | R.And xs -> List.for_all (fun x -> nullable_at ctx x p) xs
        | R.Not x -> not (nullable_at ctx x p)
        | R.Rep (x, lo, _, _) -> lo = 0 || nullable_at ctx x p
        | R.Bot | R.Eps | R.Chars _ -> n.R.null
      in
      Hashtbl.add ctx.nul (n.R.id, p) b;
      b

and eval_look ctx (l : Ast.look) (body : R.node) (p : int) : bool =
  let holds =
    if l.Ast.behind then match_ending_at ctx body p
    else match_starting_at ctx body p
  in
  if l.Ast.negative then not holds else holds

(* (?=r): does the body match input[p..e) for some e? *)
and match_starting_at ctx (body : R.node) (p : int) : bool =
  let n = String.length ctx.input in
  let rec go state q =
    if nullable_at ctx state q then true
    else if R.is_bot state || q >= n then false
    else go (deriv_at ctx state q ctx.input.[q]) (q + 1)
  in
  go body p

(* (?<=r): does the body match input[s..p) exactly for some s <= p? *)
and match_ending_at ctx (body : R.node) (p : int) : bool =
  let rec exact state q =
    if q = p then nullable_at ctx state q
    else if R.is_bot state then false
    else exact (deriv_at ctx state q ctx.input.[q]) (q + 1)
  in
  let rec try_start s = s <= p && (exact body s || try_start (s + 1)) in
  try_start 0

and split_at ctx (n : R.node) (p : int) : R.node * bool * R.node =
  let cached =
    if n.R.look_free then Hashtbl.find_opt ctx.o.split_free n.R.id
    else Hashtbl.find_opt ctx.spl (n.R.id, p)
  in
  match cached with
  | Some r -> r
  | None ->
    let a = ctx.o.arena in
    let result =
      match n.R.desc with
      | R.Bot -> (n, false, n)
      | R.Eps -> (R.bot a, true, R.bot a)
      | R.Chars _ -> (n, false, R.bot a)
      | R.Alt xs ->
        let rec go = function
          | [] -> (R.bot a, false, R.bot a)
          | x :: rest ->
            let x0, xa, x1 = split_at ctx x p in
            if xa then (x0, true, R.alt a (x1 :: rest))
            else
              let r0, ra, r1 = go rest in
              (R.alt a [ x0; r0 ], ra, r1)
        in
        go xs
      | R.Cat (x, y) ->
        if nullable_at ctx x p && nullable_at ctx y p then begin
          let x0, _, x1 = split_at ctx x p in
          let y0, _, y1 = split_at ctx y p in
          ( R.alt a [ R.cat a x0 y; y0 ],
            true,
            R.alt a [ y1; R.cat a x1 y ] )
        end
        else (n, false, R.bot a)
      | R.Rep (x, lo, hi, greedy) ->
        if lo > 0 then
          split_at ctx
            (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) greedy))
            p
        else begin
          let tail = R.rep a x 0 (R.pred_opt hi) greedy in
          if greedy then
            if nullable_at ctx x p then begin
              let x0, _, x1 = split_at ctx x p in
              (R.cat a x0 tail, true, R.cat a x1 tail)
            end
            else (R.cat a x tail, true, R.bot a)
          else if nullable_at ctx x p then begin
            let x0, _, x1 = split_at ctx x p in
            (R.bot a, true, R.cat a (R.alt a [ x0; x1 ]) tail)
          end
          else (R.bot a, true, R.cat a x tail)
        end
      | R.And _ | R.Not _ ->
        if nullable_at ctx n p then
          (R.inter a [ n; R.neg a (R.eps a) ], true, R.bot a)
        else (n, false, R.bot a)
      | R.Look (l, body) -> (R.bot a, eval_look ctx l body p, R.bot a)
    in
    (if n.R.look_free then Hashtbl.replace ctx.o.split_free n.R.id result
     else Hashtbl.replace ctx.spl (n.R.id, p) result);
    result

and deriv_at ctx (n : R.node) (p : int) (c : char) : R.node =
  let cached =
    if n.R.look_free then Hashtbl.find_opt ctx.o.deriv_free (n.R.id, c)
    else Hashtbl.find_opt ctx.der (n.R.id, p)
  in
  match cached with
  | Some r -> r
  | None ->
    let a = ctx.o.arena in
    let result =
      match n.R.desc with
      | R.Bot | R.Eps | R.Look _ -> R.bot a
      | R.Chars s -> if Charset.mem c s then R.eps a else R.bot a
      | R.Alt xs -> R.alt a (List.map (fun x -> deriv_at ctx x p c) xs)
      | R.And xs -> R.inter a (List.map (fun x -> deriv_at ctx x p c) xs)
      | R.Not x -> R.neg a (deriv_at ctx x p c)
      | R.Cat (x, y) ->
        if nullable_at ctx x p then begin
          let x0, _, x1 = split_at ctx x p in
          R.alt a
            [ R.cat a (deriv_at ctx x0 p c) y;
              deriv_at ctx y p c;
              R.cat a (deriv_at ctx x1 p c) y ]
        end
        else R.cat a (deriv_at ctx x p c) y
      | R.Rep (x, lo, hi, greedy) ->
        if lo > 0 then
          deriv_at ctx
            (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) greedy))
            p c
        else R.cat a (deriv_at ctx x p c) (R.rep a x 0 (R.pred_opt hi) greedy)
    in
    (if n.R.look_free then Hashtbl.replace ctx.o.deriv_free (n.R.id, c) result
     else Hashtbl.replace ctx.der (n.R.id, p) result);
    result

(* --- Matching drivers ---------------------------------------------------- *)

let match_at_ctx ctx (root : R.node) (start : int) : int option =
  let n = String.length ctx.input in
  let rec go state best p =
    let pre, acc, _post = split_at ctx state p in
    let best = if acc then Some p else best in
    let state = if acc then pre else state in
    if R.is_bot state || p >= n then best
    else go (deriv_at ctx state p ctx.input.[p]) best (p + 1)
  in
  go root None start

let match_at o input start =
  if start < 0 || start > String.length input then
    invalid_arg "Deriv_oracle.match_at: start";
  Mutex.protect (R.lock o.arena) (fun () ->
      match_at_ctx (make_ctx o input) o.root start)

let search ?(from = 0) o input : Semantics.span option =
  let n = String.length input in
  Mutex.protect (R.lock o.arena) (fun () ->
      let ctx = make_ctx o input in
      let rec scan start =
        if start > n then None
        else
          match match_at_ctx ctx o.root start with
          | Some stop -> Some { Semantics.start; stop }
          | None -> scan (start + 1)
      in
      scan (max 0 from))

let find_all o input : Semantics.span list =
  let rec go from acc =
    match search ~from o input with
    | None -> List.rev acc
    | Some span -> go (Semantics.next_scan_position span) (span :: acc)
  in
  go 0 []
