(* Compiler driver (paper §5): pattern -> AST -> IR -> ISA program.

   The result bundles every stage so tools (disassembler, simulator,
   harness) can inspect intermediate forms, plus the statistics the
   evaluation reports (code size excluding EoR, operator histogram).

   Extended patterns (intersection, complement, lookarounds) route
   through {!Alveare_ir.Elim} BEFORE the optimizer: when the rewrite
   produces an equivalent plain AST the normal ISA pipeline serves it
   ([Isa_lowered]); otherwise the pattern is compiled to a derivative
   matcher ([Derivative]) and the ISA fields hold a placeholder program
   (lowered from the empty pattern) that dispatch never executes —
   every execution surface checks [backend] first. *)

type backend =
  | Isa
      (* plain POSIX-ERE source; the normal pipeline *)
  | Isa_lowered
      (* extended source rewritten to an equivalent plain AST
         (priority-preserving) and served by the ISA *)
  | Derivative of Alveare_derivative.Engine.t
      (* served natively by the derivative engine; the ISA fields are a
         placeholder *)

type compiled = {
  pattern : string;
  ast : Alveare_frontend.Ast.t;         (* normalised *)
  ir : Alveare_ir.Ir.t;
  program : Alveare_isa.Program.t;
  plan : Alveare_arch.Plan.t;           (* pre-decoded execution plan *)
  options : Alveare_ir.Lower.options;
  lint : Alveare_analysis.Lint.diagnostic list;
  analysis : Alveare_analysis.Ambiguity.t;
  safe_fragments : (int * int) list;
  dfa : Alveare_arch.Dfa_overlay.family option;
  prefilter : Alveare_prefilter.Prefilter.t;
  backend : backend;
}

type error =
  | Frontend_error of string
  | Backend_error of Alveare_backend.Emit.error
  | Verify_error of Alveare_isa.Verify.violation list

let error_message = function
  | Frontend_error m -> m
  | Backend_error e -> Alveare_backend.Emit.error_message e
  | Verify_error vs ->
    "emitted program failed verification (compiler bug): "
    ^ String.concat "; "
        (List.map Alveare_isa.Verify.violation_message vs)

let compile_plain ~options ~pattern ~verify ~lint ~analysis ~backend ast
  : (compiled, error) result =
  (* The mid-end rewrite pass runs here, not inside [Lower.lower], so
     the driver can apply a never-worse guard: the optimised and
     unoptimised ASTs are both lowered and the smaller program wins
     (ties go to the optimised form — same size, fewer attempt cycles
     after dedup/dead-branch elimination). The AST stored in [compiled]
     is the one the binary was actually lowered from, so the oracle in
     the differential harness exercises exactly the optimised form. *)
  let lower_raw =
    Alveare_ir.Lower.lower
      ~options:{ options with Alveare_ir.Lower.optimize = false }
  in
  let ast, ir =
    if options.Alveare_ir.Lower.optimize then begin
      let opt_ast = Alveare_ir.Opt.optimize ast in
      let opt_ir = lower_raw opt_ast in
      if Alveare_frontend.Ast.equal opt_ast ast then (ast, opt_ir)
      else begin
        let raw_ir = lower_raw ast in
        if
          Alveare_ir.Ir.instruction_count opt_ir
          <= Alveare_ir.Ir.instruction_count raw_ir
        then (opt_ast, opt_ir)
        else (ast, raw_ir)
      end
    end
    else (ast, lower_raw ast)
  in
  (* Prefilter facts come from the same AST the program is lowered
     from, so they describe exactly the language the binary matches. *)
  let prefilter = Alveare_prefilter.Prefilter.analyze ast in
  match Alveare_backend.Emit.program_of_ir ir with
  | Error e -> Error (Backend_error e)
  | Ok program ->
    (* The plan is lowered once here, behind the post-emission
       check, so every consumer of a [compiled] executes without
       re-checking or re-decoding the binary. *)
    let finish () =
      let plan = Alveare_arch.Plan.of_program_unchecked program in
      (* Safe fragments come from the emitted program itself (not the
         source analysis), so they hold for bare-AST compiles too and
         describe exactly the binary a lazy-DFA overlay would run. *)
      let safe_fragments =
        Alveare_analysis.Ambiguity.program_fragments program
      in
      (* The overlay family is built against this exact plan value;
         Core's [?dfa] guard checks that correspondence physically. *)
      let dfa =
        Alveare_arch.Dfa_overlay.family ~fragments:safe_fragments plan
      in
      Ok { pattern; ast; ir; program; plan; options; lint; analysis;
           safe_fragments; dfa; prefilter; backend }
    in
    (* Post-emission check, the only one on this program: the verifier
       accepting every program the backend emits is a compiler
       invariant, so a rejection here is a bug in emission, not in the
       pattern. [~verify:false] skips the graph checks only. *)
    let violations =
      if not verify then Alveare_isa.Verify.structural program
      else
        match Alveare_isa.Verify.run program with Ok _ -> [] | Error vs -> vs
    in
    if violations = [] then finish () else Error (Verify_error violations)

(* Serve an extended AST with the derivative engine. The ISA fields
   hold a placeholder lowered from the empty pattern — never executed,
   since every dispatch site checks [backend] first — but keep the
   [compiled] record total so the tooling (disassembler, stats, cache)
   works unmodified. The prefilter is analysed from the real AST, so
   its facts stay honest for the pattern actually served. *)
let serve_derivative ~options ~pattern ~verify ~lint ~analysis ast
  : (compiled, error) result =
  let engine = Alveare_derivative.Engine.of_ast ast in
  match
    compile_plain ~options ~pattern ~verify ~lint ~analysis ~backend:Isa
      Alveare_frontend.Ast.Empty
  with
  | Error _ as e -> e
  | Ok c ->
    Ok { c with ast; backend = Derivative engine;
         prefilter = Alveare_prefilter.Prefilter.analyze ast }

let compile_ast ?(options = Alveare_ir.Lower.default_options)
    ?(pattern = "<ast>") ?(verify = true) ?(lint = [])
    ?(analysis = Alveare_analysis.Ambiguity.unanalyzed) ast
  : (compiled, error) result =
  let ast = Alveare_frontend.Desugar.normalize ast in
  if not (Alveare_frontend.Ast.has_extended ast) then
    compile_plain ~options ~pattern ~verify ~lint ~analysis ~backend:Isa ast
  else
    (* extended operators route through Elim BEFORE the optimizer: the
       rewrite either erases them (priority-preserving, so the ISA
       serves the pattern) or the derivative engine takes over — no
       extended pattern is ever rejected as unsupported *)
    (match Alveare_ir.Elim.plainify ast with
     | Alveare_ir.Elim.Plain plain ->
       compile_plain ~options ~pattern ~verify ~lint ~analysis
         ~backend:Isa_lowered plain
     | Alveare_ir.Elim.Extended simplified ->
       serve_derivative ~options ~pattern ~verify ~lint ~analysis simplified
     | Alveare_ir.Elim.Dead ->
       (* the language is empty; the derivative engine on the original
          AST reports exactly that (no AST literal denotes ⊥) *)
       serve_derivative ~options ~pattern ~verify ~lint ~analysis ast)

let compile ?options ?verify ?(extended = false) pattern
  : (compiled, error) result =
  match Alveare_frontend.Parser.parse_spanned_result ~extended pattern with
  | Error m -> Error (Frontend_error m)
  | Ok spanned ->
    let lint, analysis = Alveare_analysis.Lint.full spanned in
    compile_ast ?options ~pattern ?verify ~lint ~analysis
      (Alveare_frontend.Spanned.strip spanned)

let compile_exn ?options ?verify ?extended pattern =
  match compile ?options ?verify ?extended pattern with
  | Ok c -> c
  | Error e -> invalid_arg ("Compile.compile: " ^ error_message e)

(* --- Compiled-ruleset cache ------------------------------------------- *)

(* Rulesets and the evaluation harness compile the same patterns over
   and over (every engine cell of Fig. 4/5 recompiles its suite; rule
   sets share patterns across scans). A shared thread-safe LRU keyed on
   pattern source + compile options amortises that: RE2 shares compiled
   Progs across threads the same way. Only successful compilations are
   cached — errors are cheap to rediscover and keep the cache dense. *)

type cache = compiled Alveare_exec.Cache.t

let create_cache ?capacity () : cache = Alveare_exec.Cache.create ?capacity ()

let default_cache : cache = create_cache ~capacity:1024 ()

(* Key = compile options rendered unambiguously + the pattern source.
   Every options field participates (the extended-dialect flag
   included: the same source can parse differently under the two
   dialects): two compilations agree on the key iff they would produce
   the same binary. *)
let cache_key ~(options : Alveare_ir.Lower.options) ~extended pattern =
  Printf.sprintf "%c:%d:%b:%b:%s"
    (match options.Alveare_ir.Lower.mode with
     | Alveare_ir.Lower.Advanced -> 'a'
     | Alveare_ir.Lower.Minimal -> 'm')
    options.Alveare_ir.Lower.alphabet_size options.Alveare_ir.Lower.optimize
    extended pattern

let cached ?(cache = default_cache) ?(options = Alveare_ir.Lower.default_options)
    ?verify ?(extended = false) pattern : (compiled, error) result =
  let key = cache_key ~options ~extended pattern in
  match Alveare_exec.Cache.find_opt cache key with
  | Some c -> Ok c
  | None ->
    (match compile ~options ?verify ~extended pattern with
     | Ok c -> Alveare_exec.Cache.add cache key c; Ok c
     | Error _ as e -> e)

let cached_exn ?cache ?options ?extended pattern =
  match cached ?cache ?options ?extended pattern with
  | Ok c -> c
  | Error e -> invalid_arg ("Compile.cached: " ^ error_message e)

let cache_stats (cache : cache) = Alveare_exec.Cache.stats cache

(* Code size as in Table 2: instructions excluding the EoR terminator. *)
let code_size c = Alveare_isa.Program.code_size c.program

type stats = {
  code_size : int;
  total_instructions : int;
  histogram : Alveare_isa.Program.histogram;
  binary_bytes : int;
  ast_size : int;
  ast_depth : int;
}

let stats c =
  { code_size = code_size c;
    total_instructions = Alveare_isa.Program.length c.program;
    histogram = Alveare_isa.Program.histogram c.program;
    binary_bytes = Alveare_isa.Binary.size_of_program c.program;
    ast_size = Alveare_frontend.Ast.size c.ast;
    ast_depth = Alveare_frontend.Ast.depth c.ast }

let disassemble c = Alveare_isa.Program.to_string c.program

let to_binary ?strict c = Alveare_isa.Binary.to_bytes ?strict c.program

let pp_stats ppf s =
  Fmt.pf ppf
    "code size (w/o EoR): %d@.total instructions: %d@.binary bytes: %d@.\
     AST nodes: %d, depth %d@.operators: AND %d, OR %d, RANGE %d, NOT %d, \
     OPEN %d, ')' %d, QUANT %d, QUANT? %d, ')|' %d@."
    s.code_size s.total_instructions s.binary_bytes s.ast_size s.ast_depth
    s.histogram.n_base_and s.histogram.n_base_or s.histogram.n_base_range
    s.histogram.n_not s.histogram.n_open s.histogram.n_close
    s.histogram.n_quant_greedy s.histogram.n_quant_lazy s.histogram.n_alt_close
