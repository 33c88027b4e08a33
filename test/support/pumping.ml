(* Witness pumping harness: validate the ambiguity analysis's attack
   witnesses against the cycle-level core, not against the analysis's
   own cost simulator.

   The witness contract is about the PATTERN's backtracking semantics,
   so attacks are driven at a program compiled with optimisation off
   — the mid-end rewriter deliberately neutralises shapes like
   "(a+)+b" (it rewrites them to an equivalent unambiguous form), and
   a validated verdict must not depend on that rescue.

   Growth is measured at three pumped lengths L, 2L, 4L (pump counts
   rounded up from the witness pump word's length):

   - exponential: base length 3 — cost is geometric in the pumped
     length, so each doubling multiplies it; the weakest confirmed
     generator in the corpus grows ~1.6x per character, giving x4 per
     L-doubling at the first step and x18 at the second. The small
     base is the cutoff: 12 pumped characters bound the explored paths
     (~3^12 worst case) so validation stays fast even though the core
     has no cycle budget.
   - polynomial: base length 16 — degree d >= 1 means attempt cost
     ~n^(d+1), so the last doubling multiplies cost by >= ~4, where a
     linear pattern (with constant overhead) stays strictly under 2. *)

module Compile = Alveare_compiler.Compile
module Core = Alveare_arch.Core
module A = Alveare_analysis.Ambiguity

let compile_for_attack pattern =
  Compile.compile_exn
    ~options:{ Alveare_ir.Lower.default_options with optimize = false }
    pattern

(* Cycle cost of one anchored attempt at offset 0 — the quantity an
   attacker controls per injected input. *)
let attempt_cost (c : Compile.compiled) (input : string) : int =
  let stats = Core.fresh_stats () in
  ignore (Core.match_at ~stats ~plan:c.Compile.plan c.Compile.program input 0);
  stats.Core.cycles

(* Pump counts hitting pumped lengths ~base, ~2*base, ~4*base. *)
let pump_counts (w : A.witness) ~base =
  let len = max 1 (String.length w.A.pump) in
  let n = max 1 ((base + len - 1) / len) in
  (n, 2 * n, 4 * n)

let witness_costs (c : Compile.compiled) (w : A.witness) ~base =
  let n1, n2, n3 = pump_counts w ~base in
  ( attempt_cost c (A.attack_string ~pumps:n1 w),
    attempt_cost c (A.attack_string ~pumps:n2 w),
    attempt_cost c (A.attack_string ~pumps:n3 w) )

let validate_exponential c (w : A.witness) : (unit, string) result =
  let c1, c2, c3 = witness_costs c w ~base:3 in
  if c2 >= 3 * c1 && c3 >= 8 * c2 && c3 >= 200 then Ok ()
  else
    Error
      (Printf.sprintf
         "exponential witness did not explode on the core: costs %d -> %d \
          -> %d at pumped lengths 3/6/12"
         c1 c2 c3)

let validate_polynomial c (w : A.witness) : (unit, string) result =
  let c1, c2, c3 = witness_costs c w ~base:16 in
  if c3 >= 6 * c1 && 2 * c3 >= 5 * c2 && c3 >= 200 then Ok ()
  else
    Error
      (Printf.sprintf
         "polynomial witness did not grow super-linearly on the core: \
          costs %d -> %d -> %d at pumped lengths 16/32/64"
         c1 c2 c3)

(* One analysed pattern, end to end: a non-linear verdict must carry a
   witness and the witness must reproduce the claimed growth class on
   the core; a linear verdict carries no witness to drive, so it
   passes here (use [validate_flat] with a workload input to pin its
   cost down). *)
let validate (c : Compile.compiled) (a : A.t) : (unit, string) result =
  match a.A.verdict, a.A.witness with
  | A.Linear, _ -> Ok ()
  | (A.Exponential | A.Polynomial _), None ->
    Error "non-linear verdict without a witness"
  | A.Exponential, Some w -> validate_exponential c w
  | A.Polynomial _, Some w -> validate_polynomial c w

(* Flatness check for linear-classified patterns: per-attempt cost on
   [input n] must scale at most linearly from n = 64 to n = 256 (the
   +512 slack absorbs fixed attempt overhead on tiny costs). *)
let validate_flat (c : Compile.compiled) (input : int -> string) :
  (unit, string) result =
  let c1 = attempt_cost c (input 64) in
  let c2 = attempt_cost c (input 256) in
  if c2 <= (6 * c1) + 512 then Ok ()
  else
    Error
      (Printf.sprintf
         "linear-classified pattern is not flat: attempt cost %d at n=64 \
          but %d at n=256"
         c1 c2)
