(* Textual assembler for ALVEARE programs: parses the same syntax the
   disassembler ({!Program.pp} / {!Instruction.pp}) prints, so listings
   round-trip. Useful for hand-crafting programs in tests and for
   patching compiled binaries.

   Line syntax (leading "N:" addresses and blank lines are ignored):

     EOR
     ( {MIN,MAX}[ lazy] bwd=(N|-) fwd=(N|-)
     [NOT] (AND|OR|RANGE) 'CHARS' [CLOSE]
     CLOSE                                  -- standalone close

   where MIN/MAX are integers, "inf" (unbounded max) or "-" (disabled);
   CLOSE is one of ")", ")QUANT", ")QUANT?", ")|"; and CHARS uses \xNN
   escapes for bytes outside the printable range. *)

type error = {
  line : int;
  text : string;  (* the offending source line, "" when not line-specific *)
  reason : string;
}

let error_message { line; text; reason } =
  if String.trim text = "" then
    Printf.sprintf "assembly error at line %d: %s" line reason
  else
    Printf.sprintf "assembly error at line %d: %s\n  %d | %s" line reason line
      text

exception Asm_error of error

(* Helpers raise with the line number only; [parse] attaches the source
   line text at the boundary, where the split lines are in scope. *)
let fail line reason = raise (Asm_error { line; text = ""; reason })

(* Split a line into whitespace-separated tokens, keeping quoted char
   blocks ('...') as single tokens. *)
let tokens_of_line lineno s =
  let n = String.length s in
  let out = ref [] in
  let rec skip i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then skip (i + 1) else i in
  let rec word i j =
    if j < n && s.[j] <> ' ' && s.[j] <> '\t' && s.[j] <> '\'' then word i (j + 1)
    else (String.sub s i (j - i), j)
  in
  let rec quoted i j =
    if j >= n then fail lineno "unterminated quoted chars"
    else if s.[j] = '\'' then (String.sub s i (j - i), j + 1)
    else quoted i (j + 1)
  in
  let rec go i =
    let i = skip i in
    if i >= n then ()
    else if s.[i] = '\'' then begin
      let w, j = quoted (i + 1) (i + 1) in
      out := ("'" ^ w ^ "'") :: !out;
      go j
    end
    else begin
      let w, j = word i i in
      if w <> "" then out := w :: !out;
      go (max j (i + 1))
    end
  in
  go 0;
  List.rev !out

let unescape_chars lineno s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail lineno "bad \\x escape in chars"
  in
  let rec go i =
    if i >= n then ()
    else if s.[i] = '\\' && i + 3 < n && s.[i + 1] = 'x' then begin
      Buffer.add_char buf (Char.chr ((hex s.[i + 2] * 16) + hex s.[i + 3]));
      go (i + 4)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let close_of_token = function
  | ")" -> Some Instruction.Close
  | ")QUANT" -> Some Instruction.Quant_greedy
  | ")QUANT?" -> Some Instruction.Quant_lazy
  | ")|" -> Some Instruction.Alt_close
  | _ -> None

let base_of_token = function
  | "AND" -> Some Instruction.And
  | "OR" -> Some Instruction.Or
  | "RANGE" -> Some Instruction.Range
  | _ -> None

(* "{1,inf}" / "{-,5}" -> (min_enabled, min, max_enabled, max) *)
let parse_counts lineno tok =
  let n = String.length tok in
  if n < 2 || tok.[0] <> '{' || tok.[n - 1] <> '}' then
    fail lineno "expected {min,max}"
  else begin
    match String.split_on_char ',' (String.sub tok 1 (n - 2)) with
    | [ lo; hi ] ->
      let field = function
        | "-" -> (false, 0)
        | "inf" -> (true, Instruction.unbounded_max)
        | v ->
          (match int_of_string_opt v with
           | Some k -> (true, k)
           | None -> fail lineno ("bad counter " ^ v))
      in
      let min_enabled, min_count = field lo in
      let max_enabled, max_count = field hi in
      (min_enabled, min_count, max_enabled, max_count)
    | _ -> fail lineno "expected {min,max}"
  end

let parse_jump lineno tok prefix =
  let plen = String.length prefix in
  if String.length tok < plen || String.sub tok 0 plen <> prefix then
    fail lineno ("expected " ^ prefix ^ "N")
  else begin
    match String.sub tok plen (String.length tok - plen) with
    | "-" -> (false, 0)
    | v ->
      (match int_of_string_opt v with
       | Some k -> (true, k)
       | None -> fail lineno ("bad jump " ^ v))
  end

let parse_open lineno toks =
  match toks with
  | counts :: rest ->
    let min_enabled, min_count, max_enabled, max_count =
      parse_counts lineno counts
    in
    let lazy_mode, rest =
      match rest with
      | "lazy" :: more -> (true, more)
      | more -> (false, more)
    in
    (match rest with
     | [ bwd_tok; fwd_tok ] ->
       let bwd_enabled, bwd = parse_jump lineno bwd_tok "bwd=" in
       let fwd_enabled, fwd = parse_jump lineno fwd_tok "fwd=" in
       Instruction.open_sub
         { Instruction.min_enabled; max_enabled; bwd_enabled; fwd_enabled;
           lazy_mode; min_count; max_count; bwd; fwd }
     | _ -> fail lineno "open needs bwd= and fwd=")
  | [] -> fail lineno "open needs {min,max}"

let parse_instruction lineno toks =
  match toks with
  | [ "EOR" ] -> Instruction.eor
  | "(" :: rest -> parse_open lineno rest
  | [ single ] when close_of_token single <> None ->
    Instruction.close (Option.get (close_of_token single))
  | toks ->
    let neg, toks =
      match toks with "NOT" :: rest -> (true, rest) | rest -> (false, rest)
    in
    (match toks with
     | op_tok :: quoted :: rest when base_of_token op_tok <> None ->
       let op = Option.get (base_of_token op_tok) in
       let n = String.length quoted in
       if n < 2 || quoted.[0] <> '\'' || quoted.[n - 1] <> '\'' then
         fail lineno "expected quoted chars"
       else begin
         let chars = unescape_chars lineno (String.sub quoted 1 (n - 2)) in
         let instr = Instruction.base ~neg op chars in
         match rest with
         | [] -> instr
         | [ close_tok ] ->
           (match close_of_token close_tok with
            | Some c -> Instruction.fuse_close instr c
            | None -> fail lineno ("unexpected token " ^ close_tok))
         | _ -> fail lineno "trailing tokens"
       end
     | t :: _ -> fail lineno ("unexpected token " ^ t)
     | [] -> fail lineno "empty instruction")

(* Strip an optional leading "N:" address. *)
let strip_address toks =
  match toks with
  | addr :: rest when String.length addr > 0 && addr.[String.length addr - 1] = ':'
    -> rest
  | toks -> toks

let parse (source : string) : (Program.t, error) result =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let line_text lineno =
    if lineno >= 1 && lineno <= Array.length lines then
      String.trim lines.(lineno - 1)
    else ""
  in
  match
    Array.to_list lines
    |> List.mapi (fun k line -> (k + 1, line))
    |> List.filter_map (fun (lineno, line) ->
        let toks = strip_address (tokens_of_line lineno line) in
        match toks with
        | [] -> None
        | toks -> Some (lineno, parse_instruction lineno toks))
  with
  | entries ->
    let program = Array.of_list (List.map snd entries) in
    (match Verify.structural program with
     | [] -> Ok program
     | v :: _ ->
       (* Name the source line of the instruction the first violation
          points at (the last one for a missing EoR), not "line 0". *)
       let n = Array.length program in
       let pc = min (Verify.violation_pc n v) (n - 1) in
       let line = if pc >= 0 then fst (List.nth entries pc) else 0 in
       Error { line; text = line_text line;
               reason = Verify.violation_message v })
  | exception Asm_error e -> Error { e with text = line_text e.line }

let parse_exn source =
  match parse source with
  | Ok p -> p
  | Error e -> invalid_arg ("Assembler.parse: " ^ error_message e)
