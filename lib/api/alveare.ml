(* Top-level façade: one module tying the whole framework together for
   library users. Sub-libraries remain available for fine-grained use
   (alveare.isa, alveare.compiler, alveare.arch, ...); this module
   re-exports them under short names and offers one-call helpers for the
   common path: compile a pattern, run it on the simulated DSA. *)

module Isa = struct
  module Instruction = Alveare_isa.Instruction
  module Encoding = Alveare_isa.Encoding
  module Program = Alveare_isa.Program
  module Binary = Alveare_isa.Binary
  module Assembler = Alveare_isa.Assembler
end

module Frontend = struct
  module Charset = Alveare_frontend.Charset
  module Ast = Alveare_frontend.Ast
  module Lexer = Alveare_frontend.Lexer
  module Parser = Alveare_frontend.Parser
  module Desugar = Alveare_frontend.Desugar
end

module Engine = struct
  module Semantics = Alveare_engine.Semantics
  module Backtrack = Alveare_engine.Backtrack
  module Nfa = Alveare_engine.Nfa
  module Pike_vm = Alveare_engine.Pike_vm
  module Lazy_dfa = Alveare_engine.Lazy_dfa
  module Counting = Alveare_engine.Counting
  module Dfa_offline = Alveare_engine.Dfa_offline
end

module Derivative = struct
  module Regex = Alveare_derivative.Regex
  module Engine = Alveare_derivative.Engine
  module Enumerate = Alveare_derivative.Enumerate
end

module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Opt = Alveare_ir.Opt
module Core = Alveare_arch.Core
module Trace = Alveare_arch.Trace
module Vcd = Alveare_arch.Vcd
module Multicore = Alveare_multicore.Multicore

module Exec = struct
  module Pool = Alveare_exec.Pool
  module Cache = Alveare_exec.Cache
end

module Server = struct
  module Protocol = Alveare_server.Protocol
  module Metrics = Alveare_server.Metrics
  module Service = Alveare_server.Service
  module Server = Alveare_server.Server
  module Client = Alveare_server.Client
end

module Platform = struct
  module Calibration = Alveare_platform.Calibration
  module Measure = Alveare_platform.Measure
  module Energy = Alveare_platform.Energy
  module Energy_breakdown = Alveare_platform.Energy_breakdown
  module Area = Alveare_platform.Area
  module A53_re2 = Alveare_platform.A53_re2
  module Dpu = Alveare_platform.Dpu
  module Gpu = Alveare_platform.Gpu
  module Alveare_fpga = Alveare_platform.Alveare_fpga
end

module Workloads = struct
  module Rng = Alveare_workloads.Rng
  module Sampler = Alveare_workloads.Sampler
  module Streams = Alveare_workloads.Streams
  module Benchmark = Alveare_workloads.Benchmark
  module Microbench = Alveare_workloads.Microbench
end

type span = Alveare_engine.Semantics.span = {
  start : int;
  stop : int;
}

type compiled = Compile.compiled

(* --- One-call helpers --------------------------------------------------- *)

let compile ?extended pattern = Compile.compile ?extended pattern
let compile_exn ?extended pattern = Compile.compile_exn ?extended pattern

(* Compiled-pattern cache for the string-level helpers below: matching
   many inputs against the same pattern should not recompile it. Uses
   the compiler's shared thread-safe LRU, so the helpers are safe to
   call from pooled domains and share compilations with rulesets and
   the harness. *)
let cached ?extended pattern = Compile.cached ?extended pattern

let string_error r = Result.map_error Compile.error_message r

(* The helpers run with the compiled pattern's prefilter and lazy-DFA
   overlay family, and multi-core scans with the pattern's overlap
   window. Patterns the mid-end could not rewrite to the ISA
   ([backend = Derivative]) are served by the derivative engine — its
   spans agree with the ISA span-for-span on everything both can run,
   so the dispatch is invisible in the results. [find_all] is a
   ruleset rule's scan ([Ruleset.scan_compiled]). *)
let find_all ?cores ?workers ?extended pattern input
  : (span list, string) result =
  string_error
    (Result.map
       (fun (c : compiled) ->
          (Ruleset.scan_compiled ?workers ?cores
             ~overlap:(Multicore.overlap_for_ast c.Compile.ast) c input)
            .Ruleset.spans)
       (cached ?extended pattern))

let search ?extended pattern input : (span option, string) result =
  string_error
    (Result.map
       (fun (c : compiled) ->
          match c.Compile.backend with
          | Compile.Derivative eng ->
            Alveare_derivative.Engine.search eng input
          | Compile.Isa | Compile.Isa_lowered ->
            Core.search ~prefilter:c.Compile.prefilter ~plan:c.Compile.plan
              ?dfa:c.Compile.dfa c.Compile.program input)
       (cached ?extended pattern))

let matches ?extended pattern input : (bool, string) result =
  Result.map Option.is_some (search ?extended pattern input)

let disassemble pattern : (string, string) result =
  string_error (Result.map Compile.disassemble (cached pattern))

(* Modelled execution time on the paper's FPGA configuration. *)
let simulate ?(cores = 1) pattern input
  : (span list * float, string) result =
  string_error
    (Result.map
       (fun (c : compiled) ->
          let o =
            Platform.Alveare_fpga.run ~cores
              ~overlap:(Multicore.overlap_for_ast c.Compile.ast)
              ~plan:c.Compile.plan ?dfa:c.Compile.dfa c.Compile.program input
          in
          ( o.Alveare_platform.Alveare_fpga.result.Multicore.matches,
            o.Alveare_platform.Alveare_fpga.run.Alveare_platform.Measure.seconds ))
       (cached pattern))
