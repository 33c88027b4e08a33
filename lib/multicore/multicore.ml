(* Multi-core scale-out (paper §6 "Scaling Out to a Multi-Core"):
   independent cores with private instruction/data memories run the same
   compiled RE over different portions of the stream — divide and conquer
   at the data level.

   Each core owns an equal slice of the input and scans an extended
   region that overlaps the next slice by [overlap] bytes, so matches
   starting near a boundary can complete; a match is attributed to the
   core that owns its start offset, which deduplicates the overlap.
   Wall-clock cycles are the maximum over the cores (they run in
   parallel); per-core and summed statistics are also reported. This is
   the one place that cuts an input into core regions: the façade, the
   daemon and ruleset scans all call [run], at every core count. *)

module Core = Alveare_arch.Core
module Span = Alveare_engine.Semantics

type config = {
  cores : int;
  overlap : int;          (* boundary completion window, bytes *)
}

let default_overlap = 256

let config ?(cores = 1) ?(overlap = default_overlap) () =
  if cores < 1 then invalid_arg "Multicore.config: cores must be positive";
  if overlap < 0 then invalid_arg "Multicore.config: negative overlap";
  { cores; overlap }

(* Overlap window sized from the pattern when its match length is
   bounded; unbounded patterns fall back to [cap]. *)
let overlap_for_ast ?(cap = 4096) ast =
  match Alveare_frontend.Ast.max_match_length ast with
  | Some len -> min len cap
  | None -> cap

type core_result = {
  owned : Span.span list;  (* matches attributed to this core *)
  stats : Core.stats;
  slice_start : int;
  slice_stop : int;        (* exclusive ownership bound *)
}

type result = {
  matches : Span.span list;
  cycles : int;                   (* parallel wall-clock = max over cores *)
  totals : Core.stats;            (* summed over cores (energy-relevant) *)
  per_core : core_result array;
}

(* Every counter summed over the cores, except the stack high-water
   mark, which is the deepest core's. *)
let sum_stats per_core =
  let sum f = Array.fold_left (fun acc c -> acc + f c.stats) 0 per_core in
  { Core.cycles = sum (fun s -> s.Core.cycles);
    instructions = sum (fun s -> s.Core.instructions);
    rollbacks = sum (fun s -> s.Core.rollbacks);
    stack_pushes = sum (fun s -> s.Core.stack_pushes);
    max_stack_depth =
      Array.fold_left
        (fun acc c -> max acc c.stats.Core.max_stack_depth) 0 per_core;
    scan_cycles = sum (fun s -> s.Core.scan_cycles);
    attempts = sum (fun s -> s.Core.attempts);
    offsets_scanned = sum (fun s -> s.Core.offsets_scanned);
    offsets_pruned = sum (fun s -> s.Core.offsets_pruned);
    match_count = sum (fun s -> s.Core.match_count) }

(* The offsets of the sorted array [a] that lie in [lo, hi), rebased
   to [lo]. *)
let rebase a ~lo ~hi =
  let below x = Array.fold_left (fun k c -> if c < x then k + 1 else k) 0 a in
  let i = below lo in
  Array.init (below hi - i) (fun k -> a.(i + k) - lo)

(* One core's scan of [region], at the given offsets (region
   coordinates) or at every offset the prefilter admits. The prefilter
   is a per-byte first-set test, so applying it per region is sound;
   the dfa family is domain-shareable (each worker domain materializes
   its own transition table). A top-level function, always applied in
   full, so a one-core run allocates no closure for it. *)
let scan_region prefilter plan dfa program stats candidates region =
  match candidates with
  | Some candidates ->
    Core.find_all_candidates ~stats ~candidates ~plan ?dfa program region
  | None -> Core.find_all ?prefilter ~plan ?dfa ~stats program region

let run ?(workers = 1) ?prefilter ?candidates ?plan ?dfa ~config
    (program : Alveare_isa.Program.t) (input : string) : result =
  if Option.is_some prefilter && Option.is_some candidates then
    invalid_arg "Multicore.run: give ?candidates or ?prefilter, not both";
  (* One plan for the whole run: lowering (and, for a raw program, the
     validity check) happens once here instead of once per slice. The
     plan is immutable, so sharing it across worker domains is safe;
     scratch state is per-call inside [Core]. *)
  let plan =
    match plan with
    | Some p -> p
    | None -> Alveare_arch.Plan.of_program program
  in
  let n = String.length input in
  if config.cores = 1 then begin
    (* one core owns the whole input: scan it in place *)
    let stats = Core.fresh_stats () in
    let owned = scan_region prefilter plan dfa program stats candidates input in
    { matches = owned; cycles = stats.Core.cycles; totals = stats;
      per_core = [| { owned; stats; slice_start = 0; slice_stop = n } |] }
  end
  else begin
    let cores = config.cores in
    let slice = (n + cores - 1) / cores in
    (* The simulated cores are independent (private memories, disjoint
       owned regions), so the host runs them on a Domain pool. Each task
       allocates its own stats and only reads [program]/[input]; results
       land at their core index, so any [workers] count reproduces the
       sequential run exactly. *)
    let per_core =
      Alveare_exec.Pool.init ~workers cores (fun k ->
          let slice_start = min n (k * slice) in
          let slice_stop = min n ((k + 1) * slice) in
          let region_stop = min n (slice_stop + config.overlap) in
          let stats = Core.fresh_stats () in
          let owned =
            if slice_start >= region_stop && not (slice_start = n && k = 0)
            then []
            else begin
              let region =
                String.sub input slice_start (region_stop - slice_start)
              in
              (* a region ending at the end of input takes a candidate
                 there too (an empty match at offset n) *)
              let hi = if region_stop = n then n + 1 else region_stop in
              scan_region prefilter plan dfa program stats
                (Option.map (rebase ~lo:slice_start ~hi) candidates)
                region
              |> List.filter_map (fun (s : Span.span) ->
                  let start = s.Span.start + slice_start in
                  let stop = s.Span.stop + slice_start in
                  (* a match starting exactly at the end of the stream (an
                     empty match at offset n) belongs to the core whose
                     slice ends there *)
                  if start < slice_stop || (start = n && slice_stop = n) then
                    Some { Span.start; stop }
                  else None)
            end
          in
          { owned; stats; slice_start; slice_stop })
    in
    let matches =
      Array.to_list per_core
      |> List.concat_map (fun c -> c.owned)
      |> List.sort_uniq compare
    in
    let cycles =
      Array.fold_left (fun acc c -> max acc c.stats.Core.cycles) 0 per_core
    in
    { matches; cycles; totals = sum_stats per_core; per_core }
  end

let find_all ?(cores = 1) ?overlap ?workers ?prefilter ?plan ?dfa program
    input =
  (run ?workers ?prefilter ?plan ?dfa ~config:(config ~cores ?overlap ())
     program input)
    .matches
