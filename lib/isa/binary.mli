(** Loadable container format for compiled programs ("ALVR" magic,
    version byte, instruction count, one 64-bit little-endian word per
    43-bit instruction). *)

val magic : string
val version : int
val header_size : int
val word_size : int

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated of string
  | Word_error of int * Encoding.error
  | Verify_error of Verify.violation list
      (** the program decodes (or is given) but the static verifier
          rejects it *)
  | Io_error of string

val error_message : error -> string

val size_of_program : Program.t -> int
(** Size in bytes of the serialised form. *)

val to_bytes : ?strict:bool -> Program.t -> (bytes, error) result
(** Serialise a program. {!Verify.structural} must accept it, so no
    image this writes can index outside itself when loaded; otherwise
    [Verify_error]. [strict] is forwarded to {!Encoding.encode}. *)

val to_bytes_exn : ?strict:bool -> Program.t -> bytes

val of_bytes : ?verify:bool -> bytes -> (Program.t, error) result
(** Parse and verify a binary image, with one verifier call. With
    [verify] (the default) {!Verify.run} must accept the program — jump
    targets in range, balanced speculation, no dead code, no
    zero-advance cycles — so a corrupted or adversarial image is
    rejected before it can reach the core. [~verify:false] skips only
    the graph checks (dead code, zero-advance cycles):
    {!Verify.structural} still runs. Never raises: every failure mode is
    a structured [error]. *)

val write_file : ?strict:bool -> string -> Program.t -> (bytes, error) result
val read_file : ?verify:bool -> string -> (Program.t, error) result
(** [verify] as in {!of_bytes}. I/O failures return [Io_error]. *)
