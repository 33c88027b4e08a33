(** Back-end (paper §5): depth-first linearisation of the IR, fusion of
    closing operators into preceding base instructions, relative-jump
    resolution, EoR termination. *)

type error =
  | Backward_jump_too_long of { offset : int; limit : int }
  | Forward_jump_too_long of { offset : int; limit : int }

val error_message : error -> string

val program_of_ir :
  ?fuse:bool -> Alveare_ir.Ir.t -> (Alveare_isa.Program.t, error) result
(** Produces a program ending in EoR. Fails when a sub-RE is too long
    for the jump fields (bwd: 6 bits; fwd: 9 bits with the documented
    reserved-bit extension). The emitter does not check its output:
    [Compile] runs {!Alveare_isa.Verify} on every program it emits. [fuse:false] disables operation fusion (the back-end ablation
    knob); default [true]. *)

val program_of_ir_exn : ?fuse:bool -> Alveare_ir.Ir.t -> Alveare_isa.Program.t
