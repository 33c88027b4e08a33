(* Reference ruleset scan, one rule at a time: the semantics
   [Ruleset.scan ~cores] with the prefilter on must reproduce bit for
   bit, at every core count. Built only from per-rule library entry
   points, never from [Combined] or [Ruleset.scan_compiled]:

   - a rule with usable literals attempts only at the candidate starts
     of one Aho-Corasick pass over the union of every rule's literals
     ([Multicore.run ~candidates]);
   - every other ISA rule scans alone with its first-set prefilter
     ([Multicore.run ~prefilter]);
   - a derivative-backed rule runs on the derivative engine, outside the
     DSA cycle model (hits only).

   Every [Multicore.run] gets [cores] and the rule's overlap window. *)

module Ruleset = Alveare_compiler.Ruleset
module Compile = Alveare_compiler.Compile
module Core = Alveare_arch.Core
module Multicore = Alveare_multicore.Multicore
module Pf = Alveare_prefilter.Prefilter
module Ac = Alveare_prefilter.Ac
module Calibration = Alveare_platform.Calibration

(* Per rule: [Some] sorted, deduplicated candidate starts when the rule
   has usable literals, [None] otherwise. *)
let candidate_buckets (rules : Ruleset.compiled_rule array) input =
  let lits = ref [] in
  Array.iteri
    (fun i (r : Ruleset.compiled_rule) ->
       match Pf.usable_literals r.Ruleset.compiled.Compile.prefilter with
       | Some l ->
         List.iter (fun s -> lits := (s, (i, l.Pf.offset)) :: !lits) l.Pf.lits
       | None -> ())
    rules;
  let lits = List.rev !lits in
  let buckets = Array.make (Array.length rules) None in
  List.iter (fun (_, (i, _)) -> buckets.(i) <- Some []) lits;
  if lits <> [] then begin
    let refs = Array.of_list (List.map snd lits) in
    Ac.find_iter (Ac.build (List.map fst lits)) input (fun ~pat ~pos ->
        let i, offset = refs.(pat) in
        match buckets.(i) with
        | Some l when pos >= offset -> buckets.(i) <- Some ((pos - offset) :: l)
        | Some _ | None -> ())
  end;
  Array.map (Option.map (fun l -> Array.of_list (List.sort_uniq compare l)))
    buckets

let scan ?(cores = 1) ~dfa (rs : Ruleset.t) (input : string) :
    Ruleset.report =
  let buckets = candidate_buckets rs.Ruleset.rules input in
  let per_rule =
    Array.mapi
      (fun i (r : Ruleset.compiled_rule) ->
         let c = r.Ruleset.compiled in
         let run ?candidates ?prefilter () =
           let res =
             Multicore.run ?candidates ?prefilter ~plan:c.Compile.plan
               ?dfa:(if dfa then c.Compile.dfa else None)
               ~config:(Multicore.config ~cores ~overlap:r.Ruleset.overlap ())
               c.Compile.program input
           in
           ( r, res.Multicore.cycles, res.Multicore.matches,
             res.Multicore.totals, Option.is_some candidates )
         in
         match c.Compile.backend, buckets.(i) with
         | Compile.Derivative eng, _ ->
           (r, 0, Alveare_derivative.Engine.find_all eng input,
            Core.fresh_stats (), false)
         | (Compile.Isa | Compile.Isa_lowered), Some candidates ->
           run ~candidates ()
         | (Compile.Isa | Compile.Isa_lowered), None ->
           run ~prefilter:c.Compile.prefilter ())
      rs.Ruleset.rules
  in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 per_rule in
  let stat f = sum (fun (_, _, _, s, _) -> f s) in
  let total = sum (fun (_, cycles, _, _, _) -> cycles) in
  { Ruleset.hits =
      Array.to_list per_rule
      |> List.concat_map (fun ((r : Ruleset.compiled_rule), _, spans, _, _) ->
          List.map
            (fun span -> { Ruleset.hit_rule = r.Ruleset.rule; span })
            spans);
    total_wall_cycles = total;
    seconds =
      (float_of_int total /. Calibration.alveare_clock_hz)
      +. (float_of_int (Array.length per_rule)
          *. Calibration.alveare_job_overhead_s);
    per_rule_cycles =
      Array.to_list
        (Array.map
           (fun ((r : Ruleset.compiled_rule), cycles, _, _, _) ->
              (r.Ruleset.rule.Ruleset.id, cycles))
           per_rule);
    total_attempts = stat (fun s -> s.Core.attempts);
    total_offsets_scanned = stat (fun s -> s.Core.offsets_scanned);
    total_offsets_pruned = stat (fun s -> s.Core.offsets_pruned);
    prefiltered_rules = sum (fun (_, _, _, _, ac) -> Bool.to_int ac) }
