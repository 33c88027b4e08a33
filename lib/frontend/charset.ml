(* Sets of byte values, kept as sorted disjoint inclusive ranges. The
   compiler mid-end uses the range view to pack classes into the ISA RANGE
   primitive (two [lo,hi] pairs per instruction, paper §4) and the
   complement view to materialise negated classes. *)

type t = (int * int) list (* sorted, disjoint, non-adjacent ranges *)

let empty = []

let normalize ranges =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.filter (fun (lo, hi) -> lo <= hi) ranges)
  in
  let rec merge = function
    | (lo1, hi1) :: (lo2, hi2) :: rest when lo2 <= hi1 + 1 ->
      merge ((lo1, max hi1 hi2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

let of_ranges ranges =
  List.iter
    (fun (lo, hi) ->
       if lo < 0 || hi > 255 then invalid_arg "Charset.of_ranges: byte range")
    ranges;
  normalize ranges

let of_chars chars = of_ranges (List.map (fun c -> (Char.code c, Char.code c)) chars)

let singleton c = [ (Char.code c, Char.code c) ]

let range lo hi = of_ranges [ (Char.code lo, Char.code hi) ]

let union a b = normalize (a @ b)

let mem c (t : t) =
  let v = Char.code c in
  List.exists (fun (lo, hi) -> lo <= v && v <= hi) t

let is_empty (t : t) = t = []

let cardinal (t : t) = List.fold_left (fun acc (lo, hi) -> acc + hi - lo + 1) 0 t

(* Complement within [0, alphabet_size). Characters at or above the
   alphabet size are excluded both before and after complementation, which
   matches the paper's 128-char ASCII universe for '.' and negated
   classes. *)
let complement ~alphabet_size (t : t) =
  if alphabet_size < 1 || alphabet_size > 256 then
    invalid_arg "Charset.complement: alphabet_size";
  let limit = alphabet_size - 1 in
  let clipped =
    List.filter_map
      (fun (lo, hi) -> if lo > limit then None else Some (lo, min hi limit))
      t
  in
  let rec gaps cursor = function
    | [] -> if cursor <= limit then [ (cursor, limit) ] else []
    | (lo, hi) :: rest ->
      let tail = gaps (hi + 1) rest in
      if cursor < lo then (cursor, lo - 1) :: tail else tail
  in
  gaps 0 clipped

let clip ~alphabet_size (t : t) =
  let limit = alphabet_size - 1 in
  List.filter_map
    (fun (lo, hi) -> if lo > limit then None else Some (lo, min hi limit))
    t

let ranges (t : t) = t

let range_count (t : t) = List.length t

let chars (t : t) =
  List.concat_map
    (fun (lo, hi) -> List.init (hi - lo + 1) (fun k -> Char.chr (lo + k)))
    t

let equal (a : t) b = a = b

let choose (t : t) =
  match t with [] -> None | (lo, _) :: _ -> Some (Char.chr lo)

let fold_chars f acc (t : t) =
  List.fold_left
    (fun acc (lo, hi) ->
       let rec go acc v = if v > hi then acc else go (f acc (Char.chr v)) (v + 1) in
       go acc lo)
    acc t

(* One pass over [singles], then one O(256) refinement per test: a
   byte's new class is keyed on its old class and the test's answer.
   Classes are renumbered in order of their smallest byte on every pass,
   so the numbering does not depend on the order of the tests. The
   working arrays stay at 256 words so that they are allocated on the
   minor heap; only the two strings are kept. *)
let byte_classes ?(singles = "") tests =
  let cls = Array.make 256 0 in
  String.iter (fun c -> cls.(Char.code c) <- -1) singles;
  let n = ref 0 and rest = ref (-1) in
  for b = 0 to 255 do
    if cls.(b) < 0 then begin cls.(b) <- !n; incr n end
    else begin
      if !rest < 0 then begin rest := !n; incr n end;
      cls.(b) <- !rest
    end
  done;
  let out = Array.make 256 (-1) and inn = Array.make 256 (-1) in
  List.iter
    (fun test ->
       Array.fill out 0 !n (-1);
       Array.fill inn 0 !n (-1);
       n := 0;
       for b = 0 to 255 do
         let ids = if test (Char.unsafe_chr b) then inn else out in
         let c = cls.(b) in
         if ids.(c) < 0 then begin ids.(c) <- !n; incr n end;
         cls.(b) <- ids.(c)
       done)
    tests;
  let map = Bytes.create 256 and reps = Bytes.create !n in
  for b = 255 downto 0 do
    Bytes.set map b (Char.chr cls.(b));
    Bytes.set reps cls.(b) (Char.chr b)
  done;
  (Bytes.unsafe_to_string map, Bytes.unsafe_to_string reps)

let pp ppf (t : t) =
  let pp_bound ppf v =
    if v >= 0x21 && v <= 0x7e then Fmt.pf ppf "%c" (Char.chr v)
    else Fmt.pf ppf "\\x%02x" v
  in
  Fmt.pf ppf "[";
  List.iter
    (fun (lo, hi) ->
       if lo = hi then pp_bound ppf lo else Fmt.pf ppf "%a-%a" pp_bound lo pp_bound hi)
    t;
  Fmt.pf ppf "]"

(* Common POSIX/PCRE shorthand sets (paper §5: \w == [a-zA-Z0-9_]). *)
let digit = of_ranges [ (Char.code '0', Char.code '9') ]

let word =
  of_ranges
    [ (Char.code 'a', Char.code 'z');
      (Char.code 'A', Char.code 'Z');
      (Char.code '0', Char.code '9');
      (Char.code '_', Char.code '_') ]

let space = of_chars [ ' '; '\t'; '\n'; '\r'; '\x0b'; '\x0c' ]

let newline = singleton '\n'
