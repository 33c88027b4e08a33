(** Compiler driver: pattern → AST → IR → ISA program (paper §5).

    Extended patterns (intersection [&], complement [(?~r)], the four
    lookarounds) are accepted with [~extended:true]: the mid-end
    rewrite {!Alveare_ir.Elim.plainify} eliminates the extended
    operators when it can do so priority-preservingly (the ISA then
    serves the pattern, [backend = Isa_lowered]); otherwise the pattern
    compiles to a derivative matcher ([backend = Derivative]) — no
    extended pattern is ever rejected as unsupported. *)

type backend =
  | Isa  (** plain POSIX-ERE source; the normal pipeline *)
  | Isa_lowered
      (** extended source rewritten to an equivalent plain AST
          (same language, same leftmost-first spans) and served by
          the ISA *)
  | Derivative of Alveare_derivative.Engine.t
      (** served natively by the derivative engine; [program], [plan],
          [ir], [dfa] and [safe_fragments] hold a placeholder compiled
          from the empty pattern and must not be executed — dispatch
          sites check [backend] first *)

type compiled = {
  pattern : string;
  ast : Alveare_frontend.Ast.t;
      (** normalised and — when optimisation is on — rewritten by
          {!Alveare_ir.Opt.optimize}; always the exact AST the binary
          was lowered from *)
  ir : Alveare_ir.Ir.t;
  program : Alveare_isa.Program.t;
  plan : Alveare_arch.Plan.t;
      (** pre-decoded execution plan lowered from [program] at compile
          time (after the post-emission check, so no further check
          happens on any scan path); pass to
          {!Alveare_arch.Core} entry points as [?plan] *)
  options : Alveare_ir.Lower.options;
  lint : Alveare_analysis.Lint.diagnostic list;
      (** lint diagnostics for the source pattern (empty when compiled
          from a bare AST) — advisory, never a compile failure;
          includes the precise witness-backed kinds from
          {!Alveare_analysis.Lint.full} *)
  analysis : Alveare_analysis.Ambiguity.t;
      (** precise worst-case backtracking classification of the source
          pattern, witness-backed ({!Alveare_analysis.Ambiguity});
          {!Alveare_analysis.Ambiguity.unanalyzed} when compiled from a
          bare AST unless the caller supplies one *)
  safe_fragments : (int * int) list;
      (** address intervals [[lo, hi)] of [program] proven
          backtracking-free by {!Alveare_analysis.Ambiguity.program_fragments};
          computed from the emitted program in every compile path *)
  dfa : Alveare_arch.Dfa_overlay.family option;
      (** lazy-DFA overlay family built from [plan] and
          [safe_fragments]; pass to {!Alveare_arch.Core} entry points
          as [?dfa] alongside [?plan]. [None] when the fragments are
          trivial (the overlay could never engage) *)
  prefilter : Alveare_prefilter.Prefilter.t;
      (** start-of-match prefilter facts extracted from the normalised
          AST (first byte-set, required literals, min match length);
          feed to {!Alveare_arch.Core.search}/[find_all] or serialise as
          a [.pf] sidecar with {!Alveare_prefilter.Prefilter.to_bytes} *)
  backend : backend;
      (** which engine serves this pattern; [Isa] for every plain
          compile, [Isa_lowered] / [Derivative] for extended ones *)
}

type error =
  | Frontend_error of string
  | Backend_error of Alveare_backend.Emit.error
  | Verify_error of Alveare_isa.Verify.violation list
      (** the emitted program failed the static verifier — a compiler
          bug, not a pattern error *)

val error_message : error -> string

val compile :
  ?options:Alveare_ir.Lower.options ->
  ?verify:bool ->
  ?extended:bool ->
  string ->
  (compiled, error) result
(** Pattern → AST → IR → program. [extended] (default false) parses
    the extended dialect — see the module header for how extended
    patterns are served. The emitted program is checked once, by the
    static verifier: with [verify] (the default) it must pass
    {!Alveare_isa.Verify.run}, and with [~verify:false] only
    {!Alveare_isa.Verify.structural} (the graph checks are skipped).
    This post-emission check turns any emission bug into a structured
    [Verify_error] instead of a latent bad binary. The result also
    carries the pattern's lint diagnostics.

    With [options.optimize] (default on) the mid-end rewrite pass
    {!Alveare_ir.Opt.optimize} runs here, before lowering, guarded so
    the optimised program is never larger than the unoptimised one
    ([--no-opt] in the CLI tools clears it). *)

val compile_ast :
  ?options:Alveare_ir.Lower.options ->
  ?pattern:string ->
  ?verify:bool ->
  ?lint:Alveare_analysis.Lint.diagnostic list ->
  ?analysis:Alveare_analysis.Ambiguity.t ->
  Alveare_frontend.Ast.t ->
  (compiled, error) result
(** Compile a bare AST (extended nodes accepted — they route exactly
    as in {!compile}). Skips the source-level lint / ambiguity passes
    (they are span-typed): [lint] defaults to [[]] and [analysis] to
    {!Alveare_analysis.Ambiguity.unanalyzed}, keeping this path cheap
    for differential harnesses that compile thousands of generated
    ASTs. [safe_fragments] is still computed — it reads the emitted
    program, not the source. *)

val compile_exn :
  ?options:Alveare_ir.Lower.options ->
  ?verify:bool ->
  ?extended:bool ->
  string ->
  compiled

(** {2 Compiled-pattern cache}

    Thread-safe LRU over compiled programs, keyed on pattern source +
    compile options, so rule sets and the evaluation harness stop
    recompiling identical patterns. A cached compilation is the very
    value an uncached one would produce (same binary, byte for byte). *)

type cache = compiled Alveare_exec.Cache.t

val create_cache : ?capacity:int -> unit -> cache

val default_cache : cache
(** Process-wide shared cache (capacity 1024) used when [?cache] is
    omitted. Safe to use from multiple domains. *)

val cached :
  ?cache:cache ->
  ?options:Alveare_ir.Lower.options ->
  ?verify:bool ->
  ?extended:bool ->
  string ->
  (compiled, error) result
(** Like {!compile}, but consults [cache] first. Only successful
    compilations are cached; errors always recompile. Every [options]
    field and [extended] participate in the cache key (the same source
    can parse differently under the two dialects). *)

val cached_exn :
  ?cache:cache ->
  ?options:Alveare_ir.Lower.options ->
  ?extended:bool ->
  string ->
  compiled

val cache_stats : cache -> Alveare_exec.Cache.stats
(** Hit/miss/eviction counters and current occupancy. *)

val code_size : compiled -> int
(** Instructions excluding EoR (Table 2 metric). *)

type stats = {
  code_size : int;
  total_instructions : int;
  histogram : Alveare_isa.Program.histogram;
  binary_bytes : int;
  ast_size : int;
  ast_depth : int;
}

val stats : compiled -> stats
val disassemble : compiled -> string

val to_binary :
  ?strict:bool -> compiled -> (bytes, Alveare_isa.Binary.error) result

val pp_stats : stats Fmt.t
