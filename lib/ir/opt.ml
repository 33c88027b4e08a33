(* Mid-end AST optimiser (paper §5: the AST is "an optimizable high-level
   syntactic structure"; the compiler "lifts part of the REs complexity
   towards the compiler"). All rewrites preserve PCRE first-match spans —
   the property-based tests check the optimised and unoptimised programs
   against the oracle on random inputs, and the differential harness
   additionally requires the attempt/scan-cycle counters to be no worse.

   Rules (applied bottom-up to a fixpoint):

   Alternations
   - duplicate branches are dropped — `a|b|a` => `a|b` (an earlier copy
     already tried everything with the same continuation).
   - dead branches are dropped — a branch that matches no string at all
     (empty character class, or an empty start set reported by the same
     `Prefilter.analyze` first-set analysis the scanner prunes with)
     contributes nothing: `a|[^\x00-\xff]b` => `a`.
   - epsilon branches become optionals — `x|` => `x?` and `|x` => `x??`
     (an empty branch directly after/before a non-empty one is exactly a
     greedy/lazy optional, same priority order).
   - prefix factoring (trie-ification): maximal runs of ADJACENT
     branches sharing a single-char deterministic head factor it out,
     recursively — `foo|for|fob` => `fo(o|r|b)` => `fo[orb]`. Factoring
     is restricted to heads that match in exactly one way (Char / Class
     / '.'): a backtrackable head (e.g. `[ab]{1,2}`) would interleave
     its choices across branches and can change which match wins.
   - suffix factoring: adjacent branches sharing an identical last
     element factor it out — `abd|cbd` => `(a|c)bd` => `[ac]bd`,
     `ab|b` => `a?b`. Unlike heads, a shared tail needs no determinism
     restriction: exploration of (branch-specific choices, tail choices)
     is lexicographic in both forms, so priority is preserved for any
     tail shape.
   - class fusion: single-consumer alternation branches (chars, classes,
     '.') merge into one character class — `a|b|[0-9]` => `[ab0-9]`.
     Only ADJACENT consumer branches merge: a one-char branch hoisted
     over an intervening multi-char branch would gain priority over it
     (e.g. `a|bc|b` must not become `[ab]|bc`).

   Quantifiers
   - repeat coalescing: an adjacent repetition and atom (or two
     repetitions) of the same body with a compatible greediness add
     their counters — `aa*` => `a+`, `x{1,2}x{1,3}` => `x{2,5}` — except
     a bare char right after another char, which stays in that literal
     run: `baa*` is left as written.
   - nest fusion: `(x{a,b}){n,m}` => `x{n·a,m·b}` when the fused range
     is contiguous and the nest tries the totals in the fused order.
     Contiguity: the totals are the union over k in [n,m] of
     [k·a, k·b], and adjacent intervals touch iff (n+1)·a <= n·b + 1.
     Order: both sides must share a greediness unless one is exactly
     counted; every match of x must have one nonzero width, or x's own
     choices interleave with the counting (`((b|bc){1,2}){2}` on "bbcb"
     is [0,4), `(b|bc){2,4}` [0,2)); and a >= 2 needs an exact outer
     count or a greedy unbounded inner. Otherwise an iteration can
     strand fewer than a copies: greedy `(b{3,5})+` on "bbbbbb" takes 5
     and cannot start a second iteration, where `b{3,}` takes 6
     (lazily, `(b{3,5}?)+?` tries 6 as 3+3 before 4). This keeps the
     classic collapses `(x{0,}){0,}` => `x*`, `(x+)+` => `x+`,
     `(x{0,1}){0,}` => `x*`, `(x{2}){3}` => `x{6}`, and refuses
     `(x{2}){1,3}` (even totals only) and `(b{2,3})+`.
   - repetition rolling (the inverse of unfolding, targeting the
     hardware counter): a concatenation that repeats the same factor k
     times back-to-back rolls into an exact counted repeat when the
     emitted-size estimate shrinks — `[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}
     \.[0-9]{1,3}` => `([0-9]{1,3}\.){3}[0-9]{1,3}`. Restricted to
     non-nullable factors (zero-width iterations interact with the
     engines' empty-iteration cutoffs) and to windows carrying at least
     one non-literal node (a pure literal run AND-packs four chars per
     instruction and feeds the prefilter a long required literal —
     rolling it would trade both away), and guided by a static
     instruction-count estimate, so packing is never pessimised.

   The final result is additionally guarded in `Compile`: the optimised
   and unoptimised ASTs are both lowered and the smaller program wins,
   so the optimiser can never regress emitted size. *)

open Alveare_frontend

(* ------------------------------------------------------------------ *)
(* Emitted-size estimate: mirrors Lower/Ir.count closely enough to make
   rolling decisions (exactness is not required for correctness — the
   compile-time guard re-checks with the real lowering). Returns
   (instructions, ends_with_base): a closing operator fuses into an
   immediately preceding base instruction. *)

let class_est (cls : Ast.charclass) : int * bool =
  if Charset.range_count cls.set <= 2 || Charset.cardinal cls.set <= 4 then
    (1, true)
  else begin
    let set =
      if cls.negated then
        Charset.complement ~alphabet_size:Alveare_engine.Semantics.byte_universe
          cls.set
      else cls.set
    in
    let members =
      min
        ((Charset.range_count set + 1) / 2)
        ((Charset.cardinal set + 3) / 4)
    in
    if members <= 1 then (1, true) else (2 * members, false)
  end

let rec est (node : Ast.t) : int * bool =
  match node with
  | Ast.Empty -> (0, false)
  | Ast.Char _ -> (1, true)
  | Ast.Any -> class_est Desugar.dot_class
  | Ast.Class cls -> class_est cls
  | Ast.Group x -> est x
  | Ast.Concat parts ->
    (* consecutive literal chars pack four per AND instruction *)
    let flush run (n, _last) =
      if run = 0 then (n, false) else (n + ((run + 3) / 4), true)
    in
    let n, last, run =
      List.fold_left
        (fun (n, last, run) part ->
           match part with
           | Ast.Char _ -> (n, last, run + 1)
           | other ->
             let n, _ = flush run (n, last) in
             let n', last' = est other in
             if n' = 0 then (n, last, 0) else (n + n', last', 0))
        (0, false, 0) parts
    in
    flush run (n, last)
  | Ast.Alt branches ->
    let n =
      List.fold_left
        (fun acc b ->
           let n, fusable = est b in
           acc + 1 + n + if fusable then 0 else 1)
        0 branches
    in
    (n, false)
  | Ast.Repeat (x, _) ->
    let n, fusable = est x in
    (1 + n + (if fusable then 0 else 1), false)
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ ->
    (* extended operators never reach the emitter; a size-proportional
       guess keeps the rolling heuristics total *)
    (Ast.size node, false)

let size_estimate ast = fst (est ast)

(* ------------------------------------------------------------------ *)
(* Dead sub-REs: a node that matches no string at all. The cheap
   structural check catches empty classes anywhere; the prefilter
   first-set check reuses the exact analysis the scanner prunes with
   (a non-nullable RE whose possible-first-byte over-approximation is
   empty cannot start a match, hence matches nothing). *)

let rec is_void = function
  | Ast.Empty | Ast.Char _ | Ast.Any -> false
  | Ast.Class cls ->
    Charset.is_empty (Alveare_engine.Semantics.class_set cls)
  | Ast.Concat xs -> List.exists is_void xs
  | Ast.Alt xs -> List.for_all is_void xs
  | Ast.Repeat (x, q) -> q.Ast.qmin > 0 && is_void x
  | Ast.Group x -> is_void x
  | Ast.Inter xs -> List.exists is_void xs
  | Ast.Negate _ | Ast.Look _ -> false

let dead_branch b =
  is_void b
  ||
  let pf = Alveare_prefilter.Prefilter.analyze b in
  (not pf.Alveare_prefilter.Prefilter.nullable)
  && Charset.is_empty pf.Alveare_prefilter.Prefilter.first

(* Drop branches that can never match; order of the survivors (hence
   priority) is untouched. If every branch is dead the alternation as a
   whole matches nothing — keep one dead branch rather than rewriting to
   Alt [] (which normalisation would collapse to Empty = epsilon, a
   LARGER language). *)
let drop_dead_branches branches =
  match List.filter (fun b -> not (dead_branch b)) branches with
  | [] -> [ List.hd branches ]
  | alive -> alive

(* ------------------------------------------------------------------ *)
(* Alternation rules. *)

(* A branch identical to an earlier one can never contribute: whatever it
   could match, the earlier copy already tried with the same continuation.
   (An EMPTY branch does NOT make later branches unreachable — on
   backtracking from the continuation they are tried, so only duplicates
   may be dropped.) *)
let dedup_branches branches =
  let rec go seen = function
    | [] -> []
    | b :: rest ->
      if List.exists (Ast.equal b) seen then go seen rest
      else b :: go (b :: seen) rest
  in
  go [] branches

(* `x|` => `x?` and `|x` => `x??`: an epsilon branch adjacent to a
   non-empty one is exactly an optional with the matching preference
   (greedy when epsilon is the fallback, lazy when it is preferred). *)
let optionalize_epsilon branches =
  let opt greedy x = Ast.Repeat (x, { Ast.qmin = 0; qmax = Some 1; greedy }) in
  let rec go = function
    | Ast.Empty :: x :: rest when x <> Ast.Empty -> opt false x :: go rest
    | x :: Ast.Empty :: rest when x <> Ast.Empty -> go (opt true x :: rest)
    | b :: rest -> b :: go rest
    | [] -> []
  in
  go branches

(* A "single consumer" matches exactly one char then continues:
   Char, Class (negation materialised), Any. *)
let consumer_set = function
  | Ast.Char c -> Some (Charset.singleton c)
  | Ast.Class cls -> Some (Alveare_engine.Semantics.class_set cls)
  | Ast.Any -> Some (Alveare_engine.Semantics.class_set Desugar.dot_class)
  | Ast.Empty | Ast.Concat _ | Ast.Alt _ | Ast.Repeat _ | Ast.Group _
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ -> None

(* Only ADJACENT consumer branches may merge (see header). Within an
   adjacent run the merge is exact — every member consumes one char into
   the same continuation. *)
let fuse_single_consumers branches =
  let rec go = function
    | [] -> []
    | b :: rest ->
      (match consumer_set b with
       | None -> b :: go rest
       | Some set ->
         let rec take acc count = function
           | x :: more ->
             (match consumer_set x with
              | Some s -> take (Charset.union acc s) (count + 1) more
              | None -> (acc, count, x :: more))
           | [] -> (acc, count, [])
         in
         let fused, run_length, rest' = take set 1 rest in
         if run_length < 2 then b :: go rest
         else Ast.Class { negated = false; set = fused } :: go rest')
  in
  go branches

(* Leading atom of a branch when it is deterministic (single-char,
   unique match), plus the remaining tail. *)
let deterministic_head = function
  | Ast.Concat ((Ast.Char _ | Ast.Class _ | Ast.Any) :: _ as parts) ->
    (match parts with
     | x :: rest ->
       Some (x, (match rest with [] -> Ast.Empty | [ y ] -> y | ys -> Ast.Concat ys))
     | [] -> None)
  | (Ast.Char _ | Ast.Class _ | Ast.Any) as atom -> Some (atom, Ast.Empty)
  | Ast.Empty | Ast.Concat _ | Ast.Alt _ | Ast.Repeat _ | Ast.Group _
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ -> None

(* Last element of a branch plus the leading remainder. Any node shape
   may be a shared tail (priority-safe, see header); a bare atom is its
   own tail with an epsilon init, which is how `ab|b` reaches `a?b`. *)
let split_last = function
  | Ast.Concat parts ->
    (match List.rev parts with
     | last :: (_ :: _ as rev_init) ->
       let init =
         match List.rev rev_init with [ one ] -> one | init -> Ast.Concat init
       in
       Some (init, last)
     | [ only ] -> Some (Ast.Empty, only)
     | [] -> None)
  | (Ast.Char _ | Ast.Class _ | Ast.Any | Ast.Repeat _ | Ast.Alt _) as atom ->
    Some (Ast.Empty, atom)
  | Ast.Empty | Ast.Group _ | Ast.Inter _ | Ast.Negate _ | Ast.Look _ -> None

(* Factor a shared deterministic head out of maximal runs of ADJACENT
   branches (adjacency keeps PCRE branch priority intact), recursing
   into the factored tails so deep common prefixes trie-ify in one
   pass. [rewrite_branches] re-enters the full alternation pipeline on
   the strictly smaller tail alternation. *)
let rec factor_prefixes rewrite_branches branches =
  match branches with
  | [] -> []
  | first :: rest_branches ->
    (match deterministic_head first with
     | None -> first :: factor_prefixes rewrite_branches rest_branches
     | Some (h, _) ->
       let rec take acc = function
         | b :: rest ->
           (match deterministic_head b with
            | Some (h', t) when Ast.equal h h' -> take (t :: acc) rest
            | Some _ | None -> (List.rev acc, b :: rest))
         | [] -> (List.rev acc, [])
       in
       let tails, rest = take [] branches in
       if List.length tails < 2 then
         first :: factor_prefixes rewrite_branches rest_branches
       else
         Ast.Concat [ h; rewrite_branches tails ]
         :: factor_prefixes rewrite_branches rest)

(* Factor a shared last element out of maximal runs of ADJACENT
   branches, recursing into the factored inits. *)
let rec factor_suffixes rewrite_branches branches =
  match branches with
  | [] -> []
  | first :: rest_branches ->
    (match split_last first with
     | None -> first :: factor_suffixes rewrite_branches rest_branches
     | Some (_, t) ->
       let rec take acc = function
         | b :: rest ->
           (match split_last b with
            | Some (i, t') when Ast.equal t t' -> take (i :: acc) rest
            | Some _ | None -> (List.rev acc, b :: rest))
         | [] -> (List.rev acc, [])
       in
       let inits, rest = take [] branches in
       if List.length inits < 2 then
         first :: factor_suffixes rewrite_branches rest_branches
       else
         Ast.Concat [ rewrite_branches inits; t ]
         :: factor_suffixes rewrite_branches rest)

(* ------------------------------------------------------------------ *)
(* Quantifier rules. *)

(* Adjacent repeats of one atom merge counters when their backtracking
   orders compose (same greediness, or one side exactly counted) and the
   atom is rigid: every match of it has one nonzero width, so a total
   count fixes the end position. A variable-width atom does not compose:
   `([^\n]{2,3})+([^\n]{2,3})+` over ten `a`s matches [0,10), but the
   merged `([^\n]{2,3}){2,}` stops at [0,9). *)
let rigid x =
  match Alveare_prefilter.Prefilter.fixed_length x with
  | Some w -> w > 0
  | None -> false

let view_repeat = function
  | Ast.Repeat (x, q) -> (x, q)
  | atom -> (atom, { Ast.qmin = 1; qmax = Some 1; greedy = true })

let exact (q : Ast.quant) = q.qmax = Some q.qmin

let coalesce_repeats parts =
  let add_bounds (q : Ast.quant) (r : Ast.quant) =
    { Ast.qmin = q.qmin + r.qmin;
      qmax =
        (match q.qmax, r.qmax with
         | Some a, Some b -> Some (a + b)
         | None, _ | _, None -> None);
      greedy = (if exact q then r.greedy else q.greedy) }
  in
  let is_repeat = function Ast.Repeat _ -> true | _ -> false in
  let rec go prev = function
    | a :: b :: rest ->
      let xa, qa = view_repeat a and xb, qb = view_repeat b in
      (* require a repeat on at least one side: folding two bare chars
         ("ee" -> e{2}) would break 4-char AND packing and pessimise;
         and keep a bare char that packs into the char before it:
         `baa*` => `ba+` would cut the leading literal the scan filters
         starts on from `ba` to `b`, so it would attempt more *)
      let packs =
        match prev, a with Some (Ast.Char _), Ast.Char _ -> true | _ -> false
      in
      if (is_repeat a || is_repeat b)
         && (not packs)
         && Ast.equal xa xb
         && (qa.greedy = qb.greedy || exact qa || exact qb)
         && rigid xa
      then go prev (Ast.Repeat (xa, add_bounds qa qb) :: rest)
      else a :: go (Some a) (b :: rest)
    | tail -> tail
  in
  go None parts

(* (x{a,b}){n,m} => x{n·a,m·b} when the fused counting range is
   contiguous and the nest tries totals in the fused order. Totals are
   the union over k in [n,m] of [k·a, k·b]; the widest gap is between
   k = n and k = n+1, so contiguity is exactly (n+1)·a <= n·b + 1. An
   unbounded inner bound makes every k >= max(n,1) interval reach
   infinity; with n = 0 the isolated total 0 additionally needs a <= 1.
   Greediness: an exactly-counted side has no counting choice, so the
   other side's preference governs; otherwise both must agree. Order:
   when every match of [inner] has one nonzero width, a total fixes the
   end position and the nest only has to try totals in the fused order.
   With a >= 2 and a free outer count it does not: a greedy iteration
   can strand fewer than a copies and end the loop short — `(b{3,5})+`
   on "bbbbbb" gives [0,5), `b{3,}` [0,6) — and lazily `(b{3,5}?)+?`
   tries the total 6 (3+3) before 4. It does with an exact outer count
   (every iteration is mandatory, and the first decomposition of each
   total comes in the fused order) and with a greedy unbounded inner
   (the first iteration takes every copy). Refuses `(x{2}){1,3}` (even
   totals only), `(a{2})+`, `(b{2,3})+` and `((b|bc){1,2}){2}`. *)
let fuse_nest x (qo : Ast.quant) =
  match x with
  | Ast.Repeat (inner, qi) ->
    let greed_ok = qi.Ast.greedy = qo.Ast.greedy || exact qi || exact qo in
    let order_ok =
      qi.Ast.qmin <= 1 || exact qo || (qi.Ast.qmax = None && qi.Ast.greedy)
    in
    if not (greed_ok && order_ok && rigid inner) then None
    else begin
      let greedy =
        if exact qi then qo.Ast.greedy
        else qi.Ast.greedy
      in
      let a = qi.Ast.qmin and n = qo.Ast.qmin in
      let fused qmax = Some (Ast.Repeat (inner, { Ast.qmin = n * a; qmax; greedy })) in
      match qi.Ast.qmax, qo.Ast.qmax with
      | Some 0, _ | _, Some 0 -> None (* normalisation territory *)
      | None, _ ->
        if n = 0 && a > 1 then None (* {0} .. [a,inf): gap below a *)
        else fused None
      | Some b, Some m when n = m -> fused (Some (n * b))
      | Some b, outer ->
        if (n + 1) * a > (n * b) + 1 then None
        else fused (match outer with Some m -> Some (m * b) | None -> None)
    end
  | _ -> None

(* Roll a concatenation's repeated adjacent factor into an exact counted
   repeat — `u u u` => `u{3}` — when the static size estimate strictly
   shrinks (the hardware counter replaces k copies of the factor's
   instructions). All (window, position, count) candidates are scored
   and the largest estimated saving wins; one roll per call, the
   fixpoint picks up the rest. Non-nullable factors only: an
   exactly-counted nullable body meets the engines' empty-iteration
   cutoffs. *)
let roll_sequences parts =
  let arr = Array.of_list parts in
  let n = Array.length arr in
  if n < 2 then parts
  else begin
    let window_eq i j w =
      let rec go k = k = w || (Ast.equal arr.(i + k) arr.(j + k) && go (k + 1)) in
      go 0
    in
    let best = ref None in
    for w = 1 to n / 2 do
      for i = 0 to n - (2 * w) do
        let reps = ref 1 in
        while
          i + ((!reps + 1) * w) <= n && window_eq i (i + (!reps * w)) w
        do
          incr reps
        done;
        if !reps >= 2 then begin
          let window = Array.to_list (Array.sub arr i w) in
          let factor =
            match window with [ one ] -> one | parts -> Ast.Concat parts
          in
          let skip =
            (* rolling a lone repeat is coalescing's job (and strictly
               better there: x{1,2}x{1,2} => x{2,4}, not (x{1,2}){2}) *)
            (match factor with Ast.Repeat _ -> true | _ -> false)
            || Ast.nullable factor
            (* pure-literal windows stay spelled out: they AND-pack four
               chars per instruction already, and burying a literal run
               inside a Repeat would rob the prefilter of its long
               required-literal extraction (more candidate attempts for
               a marginal size win) *)
            || List.for_all
                 (function Ast.Char _ -> true | _ -> false)
                 window
            (* a char-led window must not eat into a literal run: moving
               the run's tail chars inside a Repeat splits the AND pack
               and — at the pattern head — weakens the scanner's
               leading-instruction filter from a multi-char AND to its
               first char, which costs real attempts *)
            || (match window with
                | Ast.Char _ :: _ ->
                  i = 0
                  || (match arr.(i - 1) with
                      | Ast.Char _ -> true
                      | _ -> false)
                (* a bare class at the very head compiles to a leading
                   consuming instruction the scanner vectorises; rolling
                   it behind a repeat OPEN turns those cheap scan
                   rejections into full attempts *)
                | Ast.Class _ :: _ -> i = 0
                | _ -> false)
          in
          if not skip then begin
            let k = !reps in
            let rolled =
              Ast.Repeat (factor, { Ast.qmin = k; qmax = Some k; greedy = true })
            in
            let unrolled =
              Ast.Concat (List.concat (List.init k (fun _ -> window)))
            in
            let gain = size_estimate unrolled - size_estimate rolled in
            let better =
              match !best with
              | None -> gain > 0
              | Some (bgain, _, _, _, _) -> gain > bgain
            in
            if better then best := Some (gain, i, w, k, rolled)
          end
        end
      done
    done;
    match !best with
    | None -> parts
    | Some (_, i, w, k, rolled) ->
      Array.to_list (Array.sub arr 0 i)
      @ (rolled :: Array.to_list (Array.sub arr (i + (k * w)) (n - i - (k * w))))
  end

(* ------------------------------------------------------------------ *)
(* Bottom-up rewrite. *)

let rec rewrite (node : Ast.t) : Ast.t =
  match node with
  | Ast.Empty | Ast.Char _ | Ast.Class _ | Ast.Any -> node
  | Ast.Group x -> rewrite x
  | Ast.Concat parts ->
    let parts = List.map rewrite parts in
    let parts = coalesce_repeats parts in
    let parts = roll_sequences parts in
    Ast.Concat parts
  | Ast.Alt branches -> rewrite_branches (List.map rewrite branches)
  | Ast.Repeat (x, q) ->
    let x = rewrite x in
    if is_void x && q.Ast.qmin = 0 then Ast.Empty
    else
      (match fuse_nest x q with
       | Some fusedrep -> fusedrep
       | None -> Ast.Repeat (x, q))
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ ->
    (* opaque leaves: the span-preserving rules above are not licensed
       to rewrite under exact-range (complement/lookaround) semantics,
       and the compiler routes extended patterns away from this
       optimiser anyway *)
    node

and rewrite_branches branches =
  let branches = dedup_branches branches in
  let branches = drop_dead_branches branches in
  let branches = optionalize_epsilon branches in
  let branches = factor_prefixes rewrite_alt branches in
  let branches = factor_suffixes rewrite_alt branches in
  let branches = fuse_single_consumers branches in
  match branches with [ one ] -> one | bs -> Ast.Alt bs

(* Recursion hook for the factorers: their residual alternation is
   strictly smaller than the run it came from, so this terminates. *)
and rewrite_alt branches = rewrite_branches (List.map rewrite branches)

let max_passes = 8

(* The scanner vectorises a leading consuming instruction into a cheap
   start-offset filter (the plan's [leading] table); a quant OPEN offers
   none. [filter_led] says whether a pattern's first emitted
   instruction is such a consuming test. *)
let filter_led ast =
  let rec go = function
    | Ast.Char _ | Ast.Class _ | Ast.Any -> true
    | Ast.Group x -> go x
    | Ast.Concat (hd :: _) -> go hd
    | _ -> false
  in
  go ast

(* When the source pattern led with a consuming atom but the rewritten
   one leads with a mandatory repeat (head coalescing: [^a][^a]{3} =>
   [^a]{4}; rolling: cc*?acc*?a => (c+?a){2}), peel one copy back off,
   recursively through nested leading repeats, so the filter survives —
   attempt counts must never regress. The peel is sound for any
   greediness: the first copy of a qmin >= 1 repeat is consumed
   unconditionally. *)
let rec peel_head ast =
  match ast with
  | Ast.Repeat (x, q) when q.Ast.qmin >= 1 ->
    let q' =
      { q with
        Ast.qmin = q.Ast.qmin - 1;
        qmax = Option.map (fun m -> m - 1) q.Ast.qmax }
    in
    let rest = if q'.Ast.qmax = Some 0 then [] else [ Ast.Repeat (x, q') ] in
    Desugar.normalize (Ast.Concat (peel_head x :: rest))
  | Ast.Concat (hd :: tl) -> Desugar.normalize (Ast.Concat (peel_head hd :: tl))
  | _ -> ast

let optimize (ast : Ast.t) : Ast.t =
  let rec fixpoint k ast =
    let ast' = Desugar.normalize (rewrite ast) in
    if k = 0 || Ast.equal ast ast' then ast' else fixpoint (k - 1) ast'
  in
  let ast = Desugar.normalize ast in
  let out = fixpoint max_passes ast in
  if filter_led ast && not (filter_led out) then
    let peeled = peel_head out in
    if filter_led peeled then peeled else ast
  else out
