(** ALVEARE — top-level façade.

    One module tying the framework together: compile POSIX-ERE/PCRE
    patterns to 43-bit ISA binaries and run them on the cycle-level
    simulator of the paper's speculative microarchitecture. The matching
    helpers return spans only, and always scan with the compiled
    pattern's prefilter and lazy-DFA overlay, which never change a
    span. The sub-libraries are re-exported for fine-grained use. *)

(** {1 Re-exported sub-libraries} *)

module Isa : sig
  module Instruction = Alveare_isa.Instruction
  module Encoding = Alveare_isa.Encoding
  module Program = Alveare_isa.Program
  module Binary = Alveare_isa.Binary
  module Assembler = Alveare_isa.Assembler
end

module Frontend : sig
  module Charset = Alveare_frontend.Charset
  module Ast = Alveare_frontend.Ast
  module Lexer = Alveare_frontend.Lexer
  module Parser = Alveare_frontend.Parser
  module Desugar = Alveare_frontend.Desugar
end

module Engine : sig
  module Semantics = Alveare_engine.Semantics
  module Backtrack = Alveare_engine.Backtrack
  module Nfa = Alveare_engine.Nfa
  module Pike_vm = Alveare_engine.Pike_vm
  module Lazy_dfa = Alveare_engine.Lazy_dfa
  module Counting = Alveare_engine.Counting
  module Dfa_offline = Alveare_engine.Dfa_offline
end

(** The derivative engine: the semantic oracle for the extended
    operators (intersection, complement, lookarounds) — worst-case
    linear per start position, differentially tested span-for-span
    against the plan executor on the shared POSIX-ERE fragment. *)
module Derivative : sig
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

(** Host-parallel execution: the Domain worker pool (deterministic
    result ordering) and the thread-safe LRU behind
    {!Compile.cached}. *)
module Exec : sig
  module Pool = Alveare_exec.Pool
  module Cache = Alveare_exec.Cache
end

(** The serving layer: binary wire protocol ({!Server.Protocol}),
    request broker with the lint admission gate ({!Server.Service}),
    the threaded socket daemon with bounded-queue load shedding
    ({!Server.Server}), its metrics registry and the blocking client —
    the stack behind [bin/alveared] / [bin/alveare_client]. *)
module Server : sig
  module Protocol = Alveare_server.Protocol
  module Metrics = Alveare_server.Metrics
  module Service = Alveare_server.Service
  module Server = Alveare_server.Server
  module Client = Alveare_server.Client
end

module Platform : sig
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

module Workloads : sig
  module Rng = Alveare_workloads.Rng
  module Sampler = Alveare_workloads.Sampler
  module Streams = Alveare_workloads.Streams
  module Benchmark = Alveare_workloads.Benchmark
  module Microbench = Alveare_workloads.Microbench
end

(** {1 One-call helpers}

    String-pattern helpers compile through a small internal cache, so
    matching many inputs against the same pattern compiles once. Errors
    are rendered messages. *)

(** A match: [start] inclusive, [stop] exclusive. *)
type span = Alveare_engine.Semantics.span = {
  start : int;
  stop : int;
}

type compiled = Compile.compiled

val compile : ?extended:bool -> string -> (compiled, Compile.error) result
val compile_exn : ?extended:bool -> string -> compiled

val find_all :
  ?cores:int -> ?workers:int -> ?extended:bool -> string -> string ->
  (span list, string) result
(** [find_all pattern input] — all matches on the simulated DSA, left
    to right and non-overlapping. [cores] > 1 uses the multi-core
    scale-out, with the overlap window sized from the pattern by
    {!Multicore.overlap_for_ast}; its stitched cores return the
    one-core spans, except that a match longer than the window is cut
    at its region's end (see {!Multicore}). [workers] parallelises the
    simulated cores on host domains. The scan skips
    start offsets the compiled pattern's first byte-set rules out and
    executes backtracking-free fragments on the lazy-DFA overlay
    ({!Alveare_arch.Dfa_overlay}); neither changes the spans.

    [extended] (default [false]) parses the extended dialect
    (intersection [&], complement [(?~r)], lookarounds); patterns the
    mid-end cannot rewrite for the ISA are served transparently by the
    derivative engine ({!Derivative.Engine}) — no extended pattern is
    rejected as unsupported. *)

val search :
  ?extended:bool -> string -> string -> (span option, string) result
(** Leftmost match. *)

val matches : ?extended:bool -> string -> string -> (bool, string) result

val disassemble : string -> (string, string) result

val simulate :
  ?cores:int -> string -> string -> (span list * float, string) result
(** Matches plus the modelled wall-clock seconds on the paper's FPGA
    configuration (300 MHz + PYNQ dispatch). Runs the compiled plan and
    lazy-DFA overlay with the pattern's overlap window, as [find_all]
    does, but without the prefilter: the modelled cycles are those of
    the dense scan, as in the paper's figures. DESIGN.md's "Execution /
    cost model" says which callers charge which scan. *)
