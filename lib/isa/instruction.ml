(* ALVEARE 43-bit instruction representation (paper §4, Fig. 1, Table 1).

   An instruction composes up to one operator of each class:
   - OPEN  '('  : enters a sub-RE (quantified group or alternation member);
   - NOT        : inverts an alternation base operator (OR / RANGE);
   - base       : AND / OR / RANGE over at most four reference characters;
   - close      : ')', lazy/greedy quantified close, or ')|' alternation close.
   The all-zero opcode is the End-of-RE control instruction.

   Composition rule (paper §4): operators from different classes may be
   active in the same instruction iff at most one of them uses the
   reference field. In practice: a base operator owns the reference, so it
   can be fused with a close operator (which uses none) but never with an
   OPEN (which owns the reference too). *)

type base_op =
  | And   (** all enabled reference chars must match consecutively *)
  | Or    (** one data char must equal one of the enabled chars *)
  | Range (** one data char must fall in one of up to two [lo,hi] pairs *)

type close_op =
  | Close        (** plain ')' — end of sub-RE *)
  | Quant_lazy   (** ')' + lazy quantifier *)
  | Quant_greedy (** ')' + greedy quantifier *)
  | Alt_close    (** ')|' — end of an alternation member *)

(* Reference layout of an OPEN instruction (paper Fig. 2).
   [unbounded_max] is encoded as a max counter of 63 (all ones); bounded
   counters therefore range over 0..62. *)
type open_ref = {
  min_enabled : bool;
  max_enabled : bool;
  bwd_enabled : bool;
  fwd_enabled : bool;
  lazy_mode : bool;
  min_count : int;  (** 0..63 *)
  max_count : int;  (** 0..63; 63 means unbounded *)
  bwd : int;        (** relative jump, 0..63; re-entry point of the body *)
  fwd : int;        (** relative jump; 0..511 with the reserved-bit extension *)
}

type reference =
  | Ref_none
  | Ref_chars of string  (** 1..4 bytes; base-operator pattern characters *)
  | Ref_open of open_ref

type t = {
  opn : bool;
  neg : bool;
  base : base_op option;
  close : close_op option;
  reference : reference;
}

let unbounded_max = 63
let max_bounded_count = 62
let max_jump = 63
let max_extended_fwd = 511

let eor =
  { opn = false; neg = false; base = None; close = None; reference = Ref_none }

let is_eor i =
  (not i.opn) && (not i.neg) && i.base = None && i.close = None
  && i.reference = Ref_none

let base ?(neg = false) op chars =
  { opn = false; neg; base = Some op; close = None; reference = Ref_chars chars }

let open_sub r =
  { opn = true; neg = false; base = None; close = None; reference = Ref_open r }

let close op =
  { opn = false; neg = false; base = None; close = Some op; reference = Ref_none }

let fuse_close instr op =
  match instr.close with
  | Some _ -> invalid_arg "Instruction.fuse_close: close operator already present"
  | None -> { instr with close = Some op }

type error =
  | Bad_reference of string
  | Bad_composition of string
  | Bad_field of string

let error_message = function
  | Bad_reference m -> "bad reference: " ^ m
  | Bad_composition m -> "bad composition: " ^ m
  | Bad_field m -> "bad field: " ^ m

let in_range lo hi v = v >= lo && v <= hi

(* An instruction is well-formed when the reference is owned by the right
   operator, counters and jumps fit their fields, and NOT only composes
   with alternation base operators. *)
let validate i : (unit, error) result =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check cond err = if cond then Ok () else Error err in
  let* () =
    match i.base, i.reference with
    | Some _, Ref_chars s ->
      let* () =
        check (in_range 1 4 (String.length s))
          (Bad_reference "base operator needs 1..4 reference chars")
      in
      (match i.base with
       | Some Range ->
         check (String.length s mod 2 = 0)
           (Bad_reference "RANGE needs an even number of chars (lo/hi pairs)")
       | Some (And | Or) | None -> Ok ())
    | Some _, (Ref_none | Ref_open _) ->
      Error (Bad_reference "base operator requires a character reference")
    | None, Ref_chars _ ->
      Error (Bad_reference "character reference without a base operator")
    | None, (Ref_none | Ref_open _) -> Ok ()
  in
  let* () =
    match i.opn, i.reference with
    | true, Ref_open _ -> Ok ()
    | true, (Ref_none | Ref_chars _) ->
      Error (Bad_reference "OPEN requires an open-sub-RE reference")
    | false, Ref_open _ ->
      Error (Bad_reference "open-sub-RE reference without OPEN")
    | false, (Ref_none | Ref_chars _) -> Ok ()
  in
  let* () =
    check (not (i.opn && i.base <> None))
      (Bad_composition "OPEN and a base operator both need the reference")
  in
  let* () =
    check (not (i.opn && i.close <> None))
      (Bad_composition "OPEN cannot compose with a close operator")
  in
  let* () =
    match i.neg, i.base with
    | true, Some (Or | Range) -> Ok ()
    | true, (Some And | None) ->
      Error (Bad_composition "NOT only composes with OR or RANGE")
    | false, _ -> Ok ()
  in
  match i.reference with
  | Ref_open r ->
    let* () =
      check (in_range 0 unbounded_max r.min_count) (Bad_field "min counter")
    in
    let* () =
      check (in_range 0 unbounded_max r.max_count) (Bad_field "max counter")
    in
    let* () = check (in_range 0 max_jump r.bwd) (Bad_field "backward jump") in
    check (in_range 0 max_extended_fwd r.fwd) (Bad_field "forward jump")
  | Ref_none | Ref_chars _ -> Ok ()

let equal_base_op (a : base_op) b = a = b
let equal_close_op (a : close_op) b = a = b
let equal (a : t) b = a = b

let pp_base_op ppf op =
  Fmt.string ppf (match op with And -> "AND" | Or -> "OR" | Range -> "RANGE")

let pp_close_op ppf op =
  Fmt.string ppf
    (match op with
     | Close -> ")"
     | Quant_lazy -> ")QUANT?"
     | Quant_greedy -> ")QUANT"
     | Alt_close -> ")|")

let pp_char ppf c =
  let code = Char.code c in
  (* quote and backslash are escaped so listings re-assemble *)
  if code >= 0x21 && code <= 0x7e && c <> '\'' && c <> '\\' then
    Fmt.pf ppf "%c" c
  else Fmt.pf ppf "\\x%02x" code

let pp_chars ppf s = String.iter (pp_char ppf) s

let pp_open_ref ppf r =
  let pp_count ppf (enabled, v) =
    if not enabled then Fmt.string ppf "-"
    else if v = unbounded_max then Fmt.string ppf "inf"
    else Fmt.int ppf v
  in
  Fmt.pf ppf "{%a,%a}%s bwd=%s fwd=%s"
    pp_count (r.min_enabled, r.min_count)
    pp_count (r.max_enabled, r.max_count)
    (if r.lazy_mode then " lazy" else "")
    (if r.bwd_enabled then string_of_int r.bwd else "-")
    (if r.fwd_enabled then string_of_int r.fwd else "-")

let pp ppf i =
  if is_eor i then Fmt.string ppf "EOR"
  else begin
    let sep = ref false in
    let item f =
      if !sep then Fmt.string ppf " ";
      sep := true;
      f ()
    in
    if i.opn then item (fun () -> Fmt.string ppf "(");
    (match i.base with
     | Some op ->
       item (fun () ->
           Fmt.pf ppf "%s%a" (if i.neg then "NOT " else "") pp_base_op op)
     | None -> if i.neg then item (fun () -> Fmt.string ppf "NOT"));
    (match i.reference with
     | Ref_chars s -> item (fun () -> Fmt.pf ppf "'%a'" pp_chars s)
     | Ref_open r -> item (fun () -> pp_open_ref ppf r)
     | Ref_none -> ());
    match i.close with
    | Some op -> item (fun () -> pp_close_op ppf op)
    | None -> ()
  end

let to_string i = Fmt.str "%a" pp i
