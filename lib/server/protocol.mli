(** Wire protocol of the ALVEARE matching service — a pure,
    length-prefixed binary codec, deliberately free of any socket or
    thread dependency so it is unit- and fuzz-testable in isolation.

    Every message travels as one frame:

    {v
      u32 LE  payload length N   (1 <= N <= max_frame)
      N bytes payload
    v}

    and every payload starts with a one-byte message tag followed by a
    u32 LE request id the client chooses for correlation (responses echo
    it; decoder-level failures that cannot be attributed to a request
    use id 0). Strings are u32 LE byte length + raw bytes; counters too
    large for 32 bits (simulated cycles) travel as u64 LE.

    The {!decoder} is incremental and {e total}: [feed] it arbitrary
    bytes — truncated, bit-flipped, garbage — and {!next_request} /
    {!next_response} either produce a well-formed message, ask for more
    input, or report corruption; they never raise. Corruption is sticky:
    framing is lost for good, the connection must be closed. *)

(** {1 Messages} *)

type lint_diag = {
  severity : [ `Info | `Warning ];
  kind : string;  (** stable kebab-case id, {!Alveare_analysis.Lint.kind_name} *)
  left : int;  (** byte span into the pattern, inclusive *)
  right : int;  (** exclusive *)
  message : string;
}

type request =
  | Health of { id : int }
  | Compile of { id : int; pattern : string; allow_risky : bool }
      (** compile + analyse only; [allow_risky] skips the lint gate *)
  | Scan of {
      id : int;
      pattern : string;
      input : string;
      deadline_ms : int;  (** 0 = no deadline *)
      allow_risky : bool;
    }
  | Ruleset_scan of {
      id : int;
      rules : (string * string) list;  (** (tag, pattern) *)
      input : string;
      deadline_ms : int;
      allow_risky : bool;
    }
  | Stats of { id : int }

type scan_stats = {
  attempts : int;
  offsets_scanned : int;
  offsets_pruned : int;
  cycles : int;
      (** simulated DSA wall cycles: at [cores > 1] the slowest core's,
          not the sum over cores — the figure [alveare_run] reports. A
          [Scan] attempts at every first-set candidate. A one-rule
          [Ruleset_scan] of the same pattern reports the same stats
          unless the pattern has a usable required literal: then the
          ruleset attempts only at the literal's candidates, so it
          counts fewer attempts and cycles for the same spans
          ([(GET|POST) /[a-z]*] over 50 tokens, one in five [GET /abc]:
          90 attempts and 590 cycles as a [Scan], 10 and 190 as a
          ruleset). Both charge the first-set skip, not the dense scan
          of the paper's figures; DESIGN.md's "Execution / cost model"
          says which callers charge which scan. *)
}

type error_code =
  | Bad_frame  (** framing lost: undecodable frame; connection closes *)
  | Parse_error  (** pattern (or a ruleset rule) failed to compile *)
  | Lint_rejected
      (** ReDoS-flagged pattern refused by the admission lint gate; resend
          with [allow_risky] to override *)
  | Overloaded  (** admission queue full — request shed, never queued *)
  | Deadline_exceeded
  | Too_large  (** input or frame over the server's configured limit *)
  | Shutting_down
  | Internal

type response =
  | Health_ok of { id : int; version : string }
  | Compiled of {
      id : int;
      code_size : int;
      binary_bytes : int;
      lint : lint_diag list;
    }
  | Matches of { id : int; spans : (int * int) list; stats : scan_stats }
  | Ruleset_matches of {
      id : int;
      hits : (int * string * int * int) list;
          (** (rule id, tag, start, stop) *)
      stats : scan_stats;
    }
  | Stats_reply of { id : int; entries : (string * float) list }
  | Error of { id : int; code : error_code; message : string }

val request_id : request -> int
val response_id : response -> int

val error_code_name : error_code -> string
(** Stable kebab-case identifier, e.g. ["overloaded"] — the contract
    clients script against. *)

val pp_request : request Fmt.t
val pp_response : response Fmt.t

(** {1 Encoding} *)

val default_max_frame : int
(** 64 MiB. *)

val encode_request : request -> string
(** The complete frame, length prefix included. Request ids are
    truncated to 32 bits. *)

val encode_response : response -> string

(** {1 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] bounds the accepted payload length (default
    {!default_max_frame}); a length prefix beyond it — e.g. garbage read
    as a huge u32 — is corruption, not an allocation. *)

val feed : decoder -> string -> unit
(** Append raw bytes. Cheap; buffered until a full frame is available. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by a decoded frame. *)

type 'a event =
  | Frame of 'a
  | Await  (** no complete frame buffered — feed more bytes *)
  | Corrupt of string
      (** undecodable frame; sticky — every later call reports it too *)

val next_request : decoder -> request event
(** Never raises, whatever was fed. *)

val next_response : decoder -> response event
