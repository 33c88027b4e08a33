(** Textual assembler parsing the disassembler's syntax, so listings
    round-trip ([parse (Program.to_string p) = p]). Handy for
    hand-crafting programs and patching binaries. *)

type error = {
  line : int;
  text : string;
      (** the offending source line (trimmed), [""] when the error is
          not tied to one line *)
  reason : string;
}

val error_message : error -> string

exception Asm_error of error

val parse : string -> (Program.t, error) result
(** Parses a whole program, which {!Verify.structural} must accept; the
    error names the first violation. Leading ["N:"] addresses and blank
    lines are ignored; see the implementation header for the line
    grammar. *)

val parse_exn : string -> Program.t
