(* Random-AST generators shared by the property-based tests, the
   differential test battery and the standalone fuzzer (bin/alveare_fuzz
   used to re-implement these; it now links this module).

   The generators work over a deliberately small alphabet ('a'..'h') so
   random inputs collide with random patterns often enough to exercise
   real matching, backtracking and boundary behaviour rather than the
   all-mismatch fast path. Two families are provided: QCheck generators
   (shrinking, for the qcheck properties) and Rng-driven ones
   (deterministic per seed, for the fuzzer and the bounded differential
   corpus). *)

open Alveare_frontend

let alphabet = "abcdefgh"

let gen_char : char QCheck2.Gen.t =
  QCheck2.Gen.map (String.get alphabet) (QCheck2.Gen.int_bound (String.length alphabet - 1))

let gen_charclass : Ast.charclass QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* negated = map (fun v -> v < 2) (int_bound 9) in
  let* n_items = int_range 1 3 in
  let* items =
    list_size (return n_items)
      (let* lo = gen_char in
       let* span = int_bound 2 in
       let hi_code = min (Char.code 'h') (Char.code lo + span) in
       return (Char.code lo, hi_code))
  in
  return { Ast.negated; set = Charset.of_ranges items }

let gen_quant : Ast.quant QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* qmin = int_bound 3 in
  let* qmax =
    oneof [ return None; map (fun extra -> Some (qmin + extra)) (int_bound 3) ]
  in
  let* greedy = bool in
  return { Ast.qmin; qmax; greedy }

let rec gen_ast_sized n : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  if n <= 1 then
    frequency
      [ (4, map (fun c -> Ast.Char c) gen_char);
        (4, map (fun cls -> Ast.Class cls) gen_charclass);
        (1, return Ast.Any) ]
  else
    frequency
      [ (2, map (fun c -> Ast.Char c) gen_char);
        (2, map (fun cls -> Ast.Class cls) gen_charclass);
        (3,
         let* k = int_range 2 3 in
         map (fun xs -> Ast.Concat xs)
           (list_size (return k) (gen_ast_sized (n / k))));
        (2,
         let* k = int_range 2 3 in
         map (fun xs -> Ast.Alt xs)
           (list_size (return k) (gen_ast_sized (n / k))));
        (2,
         let* q = gen_quant in
         map (fun x -> Ast.Repeat (x, q)) (gen_ast_sized (n / 2)));
        (1, map (fun x -> Ast.Group x) (gen_ast_sized (n - 1))) ]

let gen_ast : Ast.t QCheck2.Gen.t =
  QCheck2.Gen.(sized_size (int_range 1 12) gen_ast_sized)

(* Random input over the same small alphabet. *)
let gen_input : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_bound 40 in
  string_size ~gen:gen_char (return len)

(* Input with a witness of [ast] embedded, so match-paths are exercised
   and not just rejections. *)
let gen_input_with_witness (ast : Ast.t) : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* prefix = gen_input in
  let* suffix = gen_input in
  let* seed = int_bound 1_000_000 in
  let rng = Alveare_workloads.Rng.create seed in
  return (prefix ^ Alveare_workloads.Sampler.sample rng ast ^ suffix)

(* Pair generator for differential properties. *)
let gen_ast_and_input : (Ast.t * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* ast = gen_ast in
  let* input =
    oneof [ gen_input; gen_input_with_witness ast ]
  in
  return (ast, input)

(* The differential properties scan a drawn input with backtracking
   engines (the oracle, the simulator), which can run for minutes on a
   pattern the ambiguity analysis proves exponential. Such a pattern is
   scanned over the first [exponential_input_cap] bytes of its input
   only. The properties truncate after drawing (and after any doubling),
   so a seed draws the same cases as without the cap, and a failure
   report prints the drawn input, of which this prefix was scanned. *)
let exponential_input_cap = 12

let cap_exponential (ast : Ast.t) (input : string) : string =
  let module A = Alveare_analysis.Ambiguity in
  if String.length input <= exponential_input_cap then input
  else
    match (A.analyze (Spanned.of_ast ast)).A.verdict with
    | A.Exponential -> String.sub input 0 exponential_input_cap
    | A.Linear | A.Polynomial _ -> input

(* --- Extended-dialect generators (intersection / complement /
   lookarounds) ----------------------------------------------------------

   Built on top of the plain generators: extended operators appear as a
   thin layer over plain bodies, mirroring how policy rules are written
   in practice (a structural skeleton intersected with constraints, or a
   plain pattern guarded by a lookaround). Bodies stay plain so witness
   planting via [Sampler.sample] keeps working — it samples the first
   intersection member and skips zero-width nodes, and complement bodies
   are never sampled (the witness generator wraps them in an
   alternation whose other branch is plain). *)

let gen_look : Ast.look QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* behind = bool in
  let* negative = bool in
  return { Ast.behind; negative }

let rec gen_extended_sized n : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let plain m = gen_ast_sized (max 1 m) in
  if n <= 2 then plain n
  else
    frequency
      [ (3, plain n);
        (2,
         let* k = int_range 2 3 in
         map (fun xs -> Ast.Inter xs)
           (list_size (return k) (plain (n / k))));
        (1, map (fun x -> Ast.Negate x) (plain (n / 2)));
        (2,
         let* look = gen_look in
         let* body = plain (n / 2) in
         let* tail = plain (n / 2) in
         (* a lookaround next to consuming material, the common shape *)
         return (Ast.Concat [ Ast.Look (look, body); tail ]));
        (1,
         let* k = int_range 2 3 in
         map (fun xs -> Ast.Concat xs)
           (list_size (return k) (gen_extended_sized (n / k))));
        (1,
         let* k = int_range 2 3 in
         map (fun xs -> Ast.Alt xs)
           (list_size (return k) (gen_extended_sized (n / k)))) ]

let gen_extended_ast : Ast.t QCheck2.Gen.t =
  QCheck2.Gen.(sized_size (int_range 2 12) gen_extended_sized)

(* Witnesses for extended patterns are best effort: [Sampler.sample]
   refuses complement bodies, so those cases fall back to background
   noise — which still collides with the small alphabet often enough to
   exercise accept paths. *)
let gen_extended_input_with_witness (ast : Ast.t) : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* prefix = gen_input in
  let* suffix = gen_input in
  let* seed = int_bound 1_000_000 in
  let rng = Alveare_workloads.Rng.create seed in
  let witness =
    try Alveare_workloads.Sampler.sample rng ast
    with Invalid_argument _ -> ""
  in
  return (prefix ^ witness ^ suffix)

let gen_extended_ast_and_input : (Ast.t * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* ast = gen_extended_ast in
  let* input =
    oneof [ gen_input; gen_extended_input_with_witness ast ]
  in
  return (ast, input)

(* Lookarounds nested where the generators above never put them:
   inside look bodies, intersection and complement members, and
   repeats — the shapes that make one lookaround's truth depend on
   another's. *)
let rec gen_nested_sized n : Ast.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let sub k = gen_nested_sized (n / k) in
  let several = let* k = int_range 2 3 in list_size (return k) (sub k) in
  if n <= 1 then gen_ast_sized 1
  else
    frequency
      [ (2, gen_ast_sized n);
        (3,
         let* look = gen_look in
         let* body = sub 2 in
         let* tail = sub 2 in
         return (Ast.Concat [ Ast.Look (look, body); tail ]));
        (1, let* look = gen_look in map (fun b -> Ast.Look (look, b)) (sub 2));
        (2, map (fun xs -> Ast.Inter xs) several);
        (1, map (fun x -> Ast.Negate x) (sub 2));
        (2, let* q = gen_quant in map (fun x -> Ast.Repeat (x, q)) (sub 2));
        (2, map (fun xs -> Ast.Concat xs) several);
        (1, map (fun xs -> Ast.Alt xs) several) ]

let gen_nested_ast_and_input : (Ast.t * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* ast = sized_size (int_range 2 16) gen_nested_sized in
  let* input = oneof [ gen_input; gen_extended_input_with_witness ast ] in
  return (ast, input)

let print_ast ast = Alveare_frontend.Ast.to_pattern ast

let print_ast_and_input (ast, input) =
  Printf.sprintf "pattern: %s\ninput: %S" (print_ast ast) input

(* --- Rng-driven generators (deterministic per seed) -------------------- *)

module Rng = Alveare_workloads.Rng

let last = alphabet.[String.length alphabet - 1]

let rec random_ast rng depth : Ast.t =
  if depth = 0 then
    if Rng.bool rng then Ast.Char (Rng.char_of rng alphabet)
    else begin
      let lo = Rng.char_of rng alphabet in
      let hi = Char.chr (min (Char.code last) (Char.code lo + Rng.int rng 3)) in
      Ast.Class
        { negated = Rng.chance rng 0.2;
          set = Charset.range lo hi }
    end
  else begin
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
      Ast.Concat
        (List.init (Rng.range rng 2 3) (fun _ -> random_ast rng (depth - 1)))
    | 3 | 4 ->
      Ast.Alt
        (List.init (Rng.range rng 2 3) (fun _ -> random_ast rng (depth - 1)))
    | 5 | 6 ->
      let qmin = Rng.int rng 3 in
      let qmax = if Rng.bool rng then None else Some (qmin + Rng.int rng 4) in
      Ast.Repeat
        (random_ast rng (depth - 1), { Ast.qmin; qmax; greedy = Rng.bool rng })
    | _ -> random_ast rng 0
  end

(* Half the inputs are pure background noise; the other half embed a
   witness sampled from the pattern so match paths are exercised. *)
let random_input rng ast =
  let background () =
    String.init (Rng.int rng 30) (fun _ -> Rng.char_of rng alphabet)
  in
  if Rng.bool rng then background ()
  else
    background () ^ Alveare_workloads.Sampler.sample rng ast ^ background ()

let random_case rng =
  let ast = Alveare_frontend.Desugar.normalize (random_ast rng 3) in
  let input = random_input rng ast in
  (ast, input)

(* Extended-dialect Rng twin of [random_ast]: plain bodies under a thin
   layer of intersection / complement / lookaround nodes, same shapes as
   the QCheck generator above. *)
let rec random_extended_ast rng depth : Ast.t =
  if depth <= 1 then random_ast rng depth
  else begin
    match Rng.int rng 10 with
    | 0 | 1 ->
      Ast.Inter
        (List.init (Rng.range rng 2 3) (fun _ -> random_ast rng (depth - 1)))
    | 2 -> Ast.Negate (random_ast rng (depth - 1))
    | 3 | 4 ->
      let look =
        { Ast.behind = Rng.bool rng; negative = Rng.bool rng }
      in
      Ast.Concat
        [ Ast.Look (look, random_ast rng (depth - 1));
          random_ast rng (depth - 1) ]
    | 5 | 6 ->
      Ast.Concat
        (List.init (Rng.range rng 2 3)
           (fun _ -> random_extended_ast rng (depth - 1)))
    | 7 ->
      Ast.Alt
        (List.init (Rng.range rng 2 3)
           (fun _ -> random_extended_ast rng (depth - 1)))
    | _ -> random_ast rng depth
  end

let random_extended_input rng ast =
  let background () =
    String.init (Rng.int rng 30) (fun _ -> Rng.char_of rng alphabet)
  in
  if Rng.bool rng then background ()
  else
    let witness =
      try Alveare_workloads.Sampler.sample rng ast
      with Invalid_argument _ -> ""
    in
    background () ^ witness ^ background ()

let random_extended_case rng =
  let ast = Alveare_frontend.Desugar.normalize (random_extended_ast rng 3) in
  let input = random_extended_input rng ast in
  (ast, input)
