(* Workload inputs and the independent references every output is
   checked against. The standing rulesets are drawn once from fixed
   sampler seeds; the traffic is drawn from the run's --seed.

   References never go through the compiler under test: ISA rules are
   matched by the AST backtracking oracle ([Backtrack]) over the
   desugared source, extended rules by a fresh, uncached derivative
   engine built from the source AST. *)

module W = Alveare_workloads
module Rng = W.Rng
module Streams = W.Streams
module Desugar = Alveare_frontend.Desugar
module Prefilter = Alveare_prefilter.Prefilter
module Backtrack = Alveare_engine.Backtrack
module Semantics = Alveare_engine.Semantics
module Deriv = Alveare_derivative.Engine
module Ruleset = Alveare_compiler.Ruleset

(* Stream [k] of the run seeded with [seed]. *)
let rng seed k = Rng.create ((seed * 1000) + k)

(* [div] shrinks a workload for --smoke: 1 = full size, 8 = 1/8. *)
type size = { div : int }

let full = { div = 1 }
let smoke = { div = 8 }

type sampler = {
  name : string;
  patterns : Rng.t -> int -> string list;
}

let samplers =
  [ { name = "powren"; patterns = W.Powren.patterns };
    { name = "protomata"; patterns = W.Protomata.patterns };
    { name = "snort"; patterns = W.Snort.patterns } ]

let tagged name pats = List.mapi (fun i p -> (Printf.sprintf "%s-%d" name i, p)) pats

(* [data] cut into consecutive pieces of [len] bytes (the last may be
   shorter). *)
let chunks len data =
  let n = (String.length data + len - 1) / len in
  Array.init n (fun i ->
      String.sub data (i * len) (min len (String.length data - (i * len))))

(* --- Independent references ------------------------------------------- *)

(* Flattened tagged hits, rule order then position: the order
   [Ruleset.report.hits] promises. *)
type hits = (int * int * int) list

let of_report (r : Ruleset.report) : hits =
  List.map
    (fun (h : Ruleset.hit) ->
       (h.Ruleset.hit_rule.Ruleset.id, h.Ruleset.span.Semantics.start,
        h.Ruleset.span.Semantics.stop))
    r.Ruleset.hits

let spans_of id spans =
  List.map (fun (s : Semantics.span) -> (id, s.Semantics.start, s.Semantics.stop)) spans

let isa_hits pattern input =
  Backtrack.find_all (Desugar.pattern_exn pattern) input

let extended_hits pattern input =
  Deriv.find_all (Deriv.of_ast (Desugar.pattern_exn ~extended:true pattern)) input

let reference ~extended (specs : (string * string) list) input : hits =
  List.concat
    (List.mapi
       (fun id (_, p) ->
          spans_of id
            (if extended then extended_hits p input else isa_hits p input))
       specs)

(* --- DPI corpora ------------------------------------------------------ *)

(* 40 rules per sampler, 120 in all: a domain keeps at most 128 lazy-DFA
   overlay instances and drops the whole table when a 129th family is
   scanned. Past that cap every scan re-creates instances, and the
   overlay's instance finaliser can then run inside [create_instance]
   while the family mutex is held, which fails the scan with
   [Sys_error "Mutex.lock: Resource deadlock avoided"] (seen on 600-rule
   sets in about one run in forty). The scanning workloads stay under the
   cap so that no operation fails. *)
let dpi_rules_per_sampler = 40
let dpi_segment_bytes = 128 * 1024
let dpi_planted_rules = 24

(* One scan covers one chunk. A scan of 16 KiB takes about a
   millisecond and a pass over all 24 chunks about 20 ms, short beside
   the stretches in which the host slows the benchmark, so a window holds
   many undisturbed passes (see [Measure.fastest_pass]). *)
let dpi_chunk_bytes = 16 * 1024

(* Printable bytes outside every rule's first set and every byte of its
   required literals, from the prefilter facts of the desugared source
   (not of the compiled form, so optimiser changes never move the
   corpus). Cold traffic built from them starts no attempt and feeds no
   literal automaton transition beyond the root. *)
let cold_alphabet patterns =
  let hot = Array.make 256 false in
  List.iter
    (fun p ->
       let pf = Prefilter.analyze (Desugar.pattern_exn p) in
       for b = 0 to 255 do
         if Prefilter.mem_first pf (Char.chr b) then hot.(b) <- true
       done;
       match pf.Prefilter.literals with
       | Some l ->
         List.iter (String.iter (fun c -> hot.(Char.code c) <- true))
           l.Prefilter.lits
       | None -> ())
    patterns;
  let cold = Buffer.create 32 in
  for b = 0x20 to 0x7e do
    if not hot.(b) then Buffer.add_char cold (Char.chr b)
  done;
  Buffer.contents cold

type dpi = {
  specs : (string * string) list;
  cold : string;    (* the derived cold alphabet *)
  chunks : string array;  (* the three segments, concatenated and cut *)
}

(* One segment per sampler, planted with witnesses of that sampler's
   first rules. *)
let dpi ~seed ~size =
  let per = dpi_rules_per_sampler / size.div in
  let pats = List.mapi (fun k s -> (k, s, s.patterns (Rng.create (11 + k)) per)) samplers in
  let specs = List.concat_map (fun (_, s, ps) -> tagged s.name ps) pats in
  let cold = cold_alphabet (List.map snd specs) in
  if cold = "" then failwith "dpi: the rules leave no printable cold byte";
  let segment (k, _, ps) =
    let asts =
      List.filteri (fun i _ -> i < dpi_planted_rules) ps
      |> List.map (fun p -> Desugar.pattern_exn p)
    in
    (Streams.generate ~rng:(rng seed (10 + k)) ~size:(dpi_segment_bytes / size.div)
       ~background:(fun r -> Rng.char_of r cold)
       ~plant:(Streams.plant_of_patterns ~asts) ())
      .Streams.data
  in
  { specs; cold;
    chunks =
      chunks (dpi_chunk_bytes / size.div) (String.concat "" (List.map segment pats)) }

(* --- Extended policy rules -------------------------------------------- *)

let policy_rules = 16
let policy_bytes = 8 * 1024
let policy_block = 128

(* One scan covers one chunk: 1 KiB takes about 13 ms, for the reason
   given at [dpi_chunk_bytes]; the whole 8 KiB took 0.6 s a scan. *)
let policy_chunk_bytes = 1024

(* The seed permutes a fixed pool of 128-byte blocks (policy background
   with planted witnesses). The derivative engine's lookbehinds re-scan
   from the start of the input, so its cost follows where the matching
   text sits: freshly drawn text moves a scan by about 10% from seed to
   seed, a permutation of the same bytes by about 3%. *)
let policy ~seed ~size =
  let specs = tagged "policy" (W.Policy.patterns (Rng.create 31) policy_rules) in
  let asts =
    List.map (fun (_, p) -> Desugar.pattern_exn ~extended:true p) specs
  in
  let pool =
    (Streams.generate ~rng:(Rng.create 32) ~size:(policy_bytes / size.div)
       ~background:W.Policy.background ~plant:(Streams.plant_of_patterns ~asts)
       ~plant_every:1024 ())
      .Streams.data
  in
  let blocks =
    List.init (String.length pool / policy_block) (fun i ->
        String.sub pool (i * policy_block) policy_block)
  in
  ( specs,
    chunks (policy_chunk_bytes / size.div)
      (String.concat "" (Rng.shuffle (rng seed 32) blocks)) )

(* --- Daemon traffic ---------------------------------------------------- *)

let serve_rules = 16
let serve_stream_bytes = 256 * 1024
(* A request scans one slice: at 4 KiB about a millisecond, for the same
   reason as [dpi_chunk_bytes]. *)
let serve_slice_bytes = 4 * 1024
let serve_slices = 64

type serve = {
  rules : (string * string) list;
  slices : string array;
  fresh : string array;
      (* distinct Snort patterns outside [rules]: compile-cache misses *)
  prefill : string array;
      (* more of them, to fill the daemon's compile cache before the window *)
}

let serve ~seed ~size ~fresh ~prefill =
  let rules = tagged "snort" (W.Snort.patterns (Rng.create 22) serve_rules) in
  let asts = List.map (fun (_, p) -> Desugar.pattern_exn p) rules in
  let data =
    (Streams.generate ~rng:(rng seed 42) ~size:(serve_stream_bytes / size.div)
       ~background:W.Snort.background ~plant:(Streams.plant_of_patterns ~asts) ())
      .Streams.data
  in
  let len = serve_slice_bytes / size.div in
  let span = String.length data - len in
  let slices =
    Array.init serve_slices (fun i ->
        String.sub data (i * span / (serve_slices - 1)) len)
  in
  let seen = Hashtbl.create 256 in
  List.iter (fun (_, p) -> Hashtbl.replace seen p ()) rules;
  let r = rng seed 43 in
  let rec draw () =
    let p = W.Snort.pattern r in
    if Hashtbl.mem seen p then draw ()
    else begin
      Hashtbl.replace seen p ();
      p
    end
  in
  let fresh = Array.init fresh (fun _ -> draw ()) in
  { rules; slices; fresh; prefill = Array.init (prefill / size.div) (fun _ -> draw ()) }
