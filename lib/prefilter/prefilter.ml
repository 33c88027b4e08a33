(* Compile-time start-of-match prefilter extraction.

   Soundness contract (what the scanners rely on):
   - [first] over-approximates: the first byte of ANY nonempty match is
     in the set. An offset whose byte is outside can be skipped without
     an attempt. Nullable patterns match empty anywhere, so the skip
     loop is gated on [not nullable] ({!first_usable}).
   - [literals]: every match contains one of [lits] starting exactly
     [offset] bytes after the match start. Literal sets are prefix
     covers — built so that truncation (length or cardinality caps)
     only ever widens the candidate set, never narrows it.
   - [min_length] is a lower bound; [nullable] is exact (Ast.nullable).

   The extractor mirrors the literal analysis production engines run
   before automaton construction (RE2/regex-automata style), scaled to
   the operator set of the paper's frontend. *)

module Ast = Alveare_frontend.Ast
module Charset = Alveare_frontend.Charset

type literals = {
  lits : string list;
  offset : int;
  exact : bool;
}

type t = {
  first : Charset.t;
  first_bitmap : Bytes.t;
  first_count : int;
  nullable : bool;
  min_length : int;
  literals : literals option;
}

(* Extraction budgets. Exceeding one degrades gracefully (shorter or
   fewer literals, marked inexact), it never loses coverage. *)
let max_lits = 32        (* literal-set cardinality cap *)
let max_lit_len = 16     (* literal length cap, bytes *)
let max_class = 8        (* widest class enumerated into literals *)

let full_byte_universe = 256

(* ---- first byte-set --------------------------------------------------- *)

let class_set { Ast.negated; set } =
  if negated then Charset.complement ~alphabet_size:full_byte_universe set
  else set

let rec first_set = function
  | Ast.Empty -> Charset.empty
  | Ast.Char c -> Charset.singleton c
  | Ast.Any ->
    Charset.complement ~alphabet_size:full_byte_universe Charset.newline
  | Ast.Class cls -> class_set cls
  | Ast.Group x -> first_set x
  | Ast.Repeat (x, _) -> first_set x
  | Ast.Alt xs ->
    List.fold_left (fun acc x -> Charset.union acc (first_set x)) Charset.empty xs
  | Ast.Concat xs ->
    (* Union of first sets of children up to and including the first
       non-nullable one: a match can start in child k only if every
       child before it matched empty. *)
    let rec go acc = function
      | [] -> acc
      | x :: rest ->
        let acc = Charset.union acc (first_set x) in
        if Ast.nullable x then go acc rest else acc
    in
    go Charset.empty xs
  | Ast.Inter (x :: _) ->
    (* any match of the intersection is a match of each member, so a
       single member's first set already over-approximates *)
    first_set x
  | Ast.Inter [] -> Charset.empty
  | Ast.Negate _ ->
    (* complement matches are unconstrained in their first byte *)
    Charset.complement ~alphabet_size:full_byte_universe Charset.empty
  | Ast.Look _ -> Charset.empty  (* zero-width: no nonempty match *)

(* ---- minimum match length -------------------------------------------- *)

let rec min_length = function
  | Ast.Empty -> 0
  | Ast.Char _ | Ast.Class _ | Ast.Any -> 1
  | Ast.Group x -> min_length x
  | Ast.Concat xs -> List.fold_left (fun acc x -> acc + min_length x) 0 xs
  | Ast.Alt xs ->
    (match xs with
     | [] -> 0
     | x :: rest ->
       List.fold_left (fun acc y -> min acc (min_length y)) (min_length x) rest)
  | Ast.Repeat (x, q) -> q.Ast.qmin * min_length x
  | Ast.Inter xs ->
    (* a match must satisfy every member, so the largest member bound
       is still a lower bound *)
    List.fold_left (fun acc x -> max acc (min_length x)) 0 xs
  | Ast.Negate _ | Ast.Look _ -> 0

(* A child with a fixed match width contributes an exact offset for the
   literals of the children after it. *)
let fixed_length x =
  let lo = min_length x in
  match Ast.max_match_length x with
  | Some hi when hi = lo -> Some lo
  | Some _ | None -> None

(* ---- prefix-literal extraction --------------------------------------- *)

(* Invariant: every match of the node starts with one of [lits]; when
   [exact], [lits] is exactly the node's full match set. A [""] member
   means "some match may start with anything" — kept during composition
   (it cross-concatenates correctly) and rejected only at the end. *)
type seq = {
  s_lits : string list;  (* sorted, deduplicated *)
  s_exact : bool;
}

let useless = { s_lits = [ "" ]; s_exact = false }
let exact_of lits = { s_lits = List.sort_uniq compare lits; s_exact = true }

let saturated l = String.length l >= max_lit_len

(* Cross-concatenate [a] with [b]: valid only when [a] is exact (each
   of its literals is a complete match of the prefix seen so far).
   Degrades to [a]-as-prefixes when the product would blow a budget. *)
let cross a b =
  if not a.s_exact then a
  else if List.length a.s_lits * List.length b.s_lits > max_lits then
    { a with s_exact = false }
  else begin
    let prod =
      List.concat_map
        (fun x ->
           List.map
             (fun y ->
                let xy = x ^ y in
                if String.length xy > max_lit_len then
                  String.sub xy 0 max_lit_len
                else xy)
             b.s_lits)
        a.s_lits
    in
    let lits = List.sort_uniq compare prod in
    { s_lits = lits;
      s_exact = a.s_exact && b.s_exact && not (List.exists saturated lits) }
  end

let union a b =
  let lits = List.sort_uniq compare (a.s_lits @ b.s_lits) in
  if List.length lits > max_lits then useless
  else { s_lits = lits; s_exact = a.s_exact && b.s_exact }

let rec literal_seq = function
  | Ast.Empty -> exact_of [ "" ]
  | Ast.Char c -> exact_of [ String.make 1 c ]
  | Ast.Class ({ Ast.negated = false; set } as _cls)
    when Charset.cardinal set <= max_class && not (Charset.is_empty set) ->
    exact_of (List.map (String.make 1) (Charset.chars set))
  | Ast.Class _ | Ast.Any -> useless
  | Ast.Group x -> literal_seq x
  | Ast.Alt xs ->
    (match xs with
     | [] -> exact_of [ "" ]
     | x :: rest ->
       List.fold_left (fun acc y -> union acc (literal_seq y)) (literal_seq x)
         rest)
  | Ast.Concat xs ->
    List.fold_left
      (fun acc x -> if acc.s_exact then cross acc (literal_seq x) else acc)
      (exact_of [ "" ]) xs
  | Ast.Repeat (x, q) ->
    let s = literal_seq x in
    if q.Ast.qmin = 0 then begin
      match q.Ast.qmax with
      | Some 0 -> exact_of [ "" ]
      | Some 1 -> union (exact_of [ "" ]) s  (* x? *)
      | Some _ | None -> { s_lits = [ "" ]; s_exact = false }
    end
    else begin
      (* Cross qmin mandatory copies; matches may be longer unless
         qmax = qmin, so the result is prefix-only in general. *)
      let rec go acc k =
        if k = 0 || not acc.s_exact then acc else go (cross acc s) (k - 1)
      in
      let acc = go (exact_of [ "" ]) q.Ast.qmin in
      { acc with s_exact = acc.s_exact && q.Ast.qmax = Some q.Ast.qmin }
    end
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ ->
    (* extended operators carry no guaranteed literal prefix *)
    useless

(* A seq prunes offsets only if every covered match starts with at
   least one byte of literal. *)
let seq_useful s = s.s_lits <> [] && List.for_all (fun l -> l <> "") s.s_lits

(* Longer guaranteed literals prune more; among equals prefer fewer
   literals, then smaller offsets (earlier confirmation). *)
let seq_score offset s =
  let minlen =
    List.fold_left (fun acc l -> min acc (String.length l)) max_int s.s_lits
  in
  (minlen, -List.length s.s_lits, -offset)

let rec strip = function
  | Ast.Group x -> strip x
  | Ast.Concat [ x ] | Ast.Alt [ x ] -> strip x
  | x -> x

let best_literals ast : literals option =
  let candidates = ref [] in
  let add offset s exact_ok =
    if seq_useful s then
      candidates :=
        (seq_score offset s,
         { lits = s.s_lits; offset; exact = exact_ok && s.s_exact })
        :: !candidates
  in
  add 0 (literal_seq ast) true;
  (* Inner literal at an exact offset: walk the top-level concatenation
     while every previous child has a fixed width, extracting the
     literal prefix of the whole remaining tail at each position. *)
  (match strip ast with
   | Ast.Concat xs ->
     let rec walk offset = function
       | [] -> ()
       | x :: rest ->
         if offset > 0 then add offset (literal_seq (Ast.Concat (x :: rest))) false;
         (match fixed_length x with
          | Some k -> walk (offset + k) rest
          | None -> ())
     in
     walk 0 xs
   | _ -> ());
  match !candidates with
  | [] -> None
  | cs ->
    let best =
      List.fold_left
        (fun (bs, bl) (s, l) -> if s > bs then (s, l) else (bs, bl))
        (List.hd cs) (List.tl cs)
    in
    Some (snd best)

(* ---- assembly --------------------------------------------------------- *)

let bitmap_of_charset set =
  let b = Bytes.make 32 '\000' in
  Charset.fold_chars
    (fun () c ->
       let v = Char.code c in
       Bytes.set b (v lsr 3)
         (Char.chr (Char.code (Bytes.get b (v lsr 3)) lor (1 lsl (v land 7)))))
    () set;
  b

let analyze ast =
  let first = first_set ast in
  let nullable = Ast.nullable ast in
  { first;
    first_bitmap = bitmap_of_charset first;
    first_count = Charset.cardinal first;
    nullable;
    min_length = min_length ast;
    literals = (if nullable then None else best_literals ast) }

let first_usable t =
  not t.nullable && t.min_length > 0 && t.first_count < full_byte_universe

let usable_literals t = if t.nullable then None else t.literals

let mem_first t c =
  let v = Char.code c in
  Char.code (Bytes.unsafe_get t.first_bitmap (v lsr 3)) land (1 lsl (v land 7))
  <> 0

let next_candidate t input i =
  let n = String.length input in
  let rec go i =
    if i >= n then None
    else if mem_first t (String.unsafe_get input i) then Some i
    else go (i + 1)
  in
  go (max 0 i)

let equal_literals a b =
  a.offset = b.offset && a.exact = b.exact && a.lits = b.lits

let equal a b =
  Charset.equal a.first b.first
  && a.nullable = b.nullable
  && a.min_length = b.min_length
  && (match a.literals, b.literals with
      | None, None -> true
      | Some x, Some y -> equal_literals x y
      | Some _, None | None, Some _ -> false)

(* ---- sidecar serialisation ------------------------------------------- *)

let magic = "ALVP"
let version = 1

(* The flag bits a sidecar may set: 1 nullable, 4 literal table
   present, 8 exact literals. [of_bytes] refuses any other. *)
let flag_bits = 1 lor 4 lor 8

let to_bytes t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  let flags =
    (if t.nullable then 1 else 0)
    lor (match t.literals with Some _ -> 4 | None -> 0)
    lor (match t.literals with Some { exact = true; _ } -> 8 | _ -> 0)
  in
  Buffer.add_uint8 buf flags;
  Buffer.add_int32_le buf (Int32.of_int (min t.min_length 0x3fffffff));
  Buffer.add_bytes buf t.first_bitmap;
  (match t.literals with
   | None -> ()
   | Some { lits; offset; exact = _ } ->
     Buffer.add_int32_le buf (Int32.of_int offset);
     Buffer.add_uint16_le buf (List.length lits);
     List.iter
       (fun l ->
          Buffer.add_uint16_le buf (String.length l);
          Buffer.add_string buf l)
       lits);
  Buffer.to_bytes buf

let of_bytes b =
  let len = Bytes.length b in
  let pos = ref 0 in
  let err = ref None in
  let fail m = err := Some m in
  let u8 () =
    if !pos + 1 > len then (fail "truncated"; 0)
    else begin let v = Bytes.get_uint8 b !pos in pos := !pos + 1; v end
  in
  let u16 () =
    if !pos + 2 > len then (fail "truncated"; 0)
    else begin let v = Bytes.get_uint16_le b !pos in pos := !pos + 2; v end
  in
  let i32 () =
    if !pos + 4 > len then (fail "truncated"; 0)
    else begin
      let v = Int32.to_int (Bytes.get_int32_le b !pos) in
      pos := !pos + 4; v
    end
  in
  let raw k =
    if !pos + k > len then (fail "truncated"; "")
    else begin let s = Bytes.sub_string b !pos k in pos := !pos + k; s end
  in
  if len < 4 || not (String.equal (raw 4) magic) then Error "bad magic"
  else begin
    let v = u8 () in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else begin
      let flags = u8 () in
      let min_len = i32 () in
      let bitmap = Bytes.of_string (raw 32) in
      let literals =
        if flags land 4 = 0 then None
        else begin
          let offset = i32 () in
          let count = u16 () in
          if count > 0xffff then (fail "bad literal count"; None)
          else begin
            let lits = ref [] in
            for _ = 1 to count do
              let l = u16 () in
              lits := raw l :: !lits
            done;
            Some
              { lits = List.sort_uniq compare !lits;
                offset;
                exact = flags land 8 <> 0 }
          end
        end
      in
      match !err with
      | Some m -> Error m
      | None ->
        if flags land lnot flag_bits <> 0 then
          Error
            (Printf.sprintf "undefined flag bits 0x%02x"
               (flags land lnot flag_bits))
        else if min_len < 0 then Error "negative min length"
        else if (match literals with
                 | Some { offset; lits; _ } ->
                   offset < 0 || List.exists (fun l -> l = "") lits
                 | None -> false)
        then Error "malformed literal table"
        else begin
          let chars = ref [] in
          for vb = 255 downto 0 do
            if Char.code (Bytes.get bitmap (vb lsr 3)) land (1 lsl (vb land 7))
               <> 0
            then chars := Char.chr vb :: !chars
          done;
          let first = Charset.of_chars !chars in
          Ok
            { first;
              first_bitmap = bitmap;
              first_count = Charset.cardinal first;
              nullable = flags land 1 <> 0;
              min_length = min_len;
              literals }
        end
    end
  end

let describe t =
  Printf.sprintf "first{%d}%s min_len=%d%s" t.first_count
    (if t.nullable then " nullable" else "")
    t.min_length
    (match t.literals with
     | None -> ""
     | Some { lits; offset; exact } ->
       Printf.sprintf " lits{%d}@%d%s" (List.length lits) offset
         (if exact then " exact" else ""))

let pp ppf t = Fmt.string ppf (describe t)
