(* On-disk / loadable container for compiled ALVEARE programs.

   Layout (little-endian):
     bytes 0..3   magic "ALVR"
     byte  4      format version (1)
     byte  5      flags (bit 0: strict 6-bit forward jumps)
     bytes 6..7   reserved, zero
     bytes 8..11  instruction count (uint32)
     then count * 8 bytes: each 43-bit instruction word zero-extended to
     64 bits. Eight-byte alignment keeps the loader trivial; the paper's
   instruction memory would pack 43-bit words natively. *)

let magic = "ALVR"
let version = 1

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated of string
  | Word_error of int * Encoding.error
  | Verify_error of Verify.violation list
  | Io_error of string

let error_message = function
  | Bad_magic -> "bad magic (not an ALVEARE binary)"
  | Bad_version v -> Printf.sprintf "unsupported format version %d" v
  | Truncated what -> "truncated binary: " ^ what
  | Word_error (idx, e) ->
    Printf.sprintf "word %d: %s" idx (Encoding.error_message e)
  | Verify_error vs ->
    Printf.sprintf "verifier rejected the program: %s"
      (String.concat "; " (List.map Verify.violation_message vs))
  | Io_error m -> "i/o error: " ^ m

let header_size = 12
let word_size = 8

let size_of_program p = header_size + (word_size * Program.length p)

let to_bytes ?(strict = false) (p : Program.t) : (bytes, error) result =
  match Verify.structural p with
  | _ :: _ as vs -> Error (Verify_error vs)
  | [] ->
    let n = Program.length p in
    let buf = Bytes.make (header_size + (word_size * n)) '\000' in
    Bytes.blit_string magic 0 buf 0 4;
    Bytes.set_uint8 buf 4 version;
    Bytes.set_uint8 buf 5 (if strict then 1 else 0);
    Bytes.set_int32_le buf 8 (Int32.of_int n);
    let failure = ref None in
    Array.iteri
      (fun idx i ->
         match Encoding.encode ~strict i with
         | Ok w ->
           Bytes.set_int64_le buf (header_size + (word_size * idx)) (Int64.of_int w)
         | Error e -> if !failure = None then failure := Some (Word_error (idx, e)))
      p;
    (match !failure with Some e -> Error e | None -> Ok buf)

let to_bytes_exn ?strict p =
  match to_bytes ?strict p with
  | Ok b -> b
  | Error e -> invalid_arg ("Binary.to_bytes: " ^ error_message e)

let of_bytes ?(verify = true) (buf : bytes) : (Program.t, error) result =
  let len = Bytes.length buf in
  if len < header_size then Error (Truncated "header")
  else if Bytes.sub_string buf 0 4 <> magic then Error Bad_magic
  else begin
    let v = Bytes.get_uint8 buf 4 in
    if v <> version then Error (Bad_version v)
    else begin
      let n = Int32.to_int (Bytes.get_int32_le buf 8) in
      if n < 0 || len < header_size + (word_size * n) then
        Error (Truncated "instruction words")
      else begin
        let failure = ref None in
        let program =
          Array.init n (fun idx ->
              let w = Int64.to_int (Bytes.get_int64_le buf (header_size + (word_size * idx))) in
              match Encoding.decode w with
              | Ok i -> i
              | Error e ->
                if !failure = None then failure := Some (Word_error (idx, e));
                Instruction.eor)
        in
        match !failure with
        | Some e -> Error e
        | None ->
          (* Load-time verification: a decoded image that the static
             verifier rejects never reaches the core. *)
          let violations =
            if not verify then Verify.structural program
            else
              match Verify.run program with Ok _ -> [] | Error vs -> vs
          in
          if violations = [] then Ok program
          else Error (Verify_error violations)
      end
    end
  end

let write_file ?strict path p =
  match to_bytes ?strict p with
  | Error _ as e -> e
  | Ok buf ->
    let oc = open_out_bin path in
    (try
       output_bytes oc buf;
       close_out oc;
       Ok buf
     with e ->
       close_out_noerr oc;
       raise e)

let read_file ?verify path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let buf = Bytes.create len in
    (try
       really_input ic buf 0 len;
       close_in ic
     with e ->
       close_in_noerr ic;
       raise e);
    buf
  with
  | buf -> of_bytes ?verify buf
  | exception Sys_error m -> Error (Io_error m)
  | exception End_of_file -> Error (Io_error (path ^ ": unexpected end of file"))
