(** Hash-consed regex nodes for the derivative engine.

    An arena interns structurally identical sub-expressions to one
    physical node with a unique integer id (Antimirov-style smart
    constructors keep the state space finite); {!Engine} keys its
    lazy-DFA rows and memo tables on those ids.

    Every constructor law preserves PCRE leftmost-first priority, not
    just language — see the implementation header for the discipline
    ([Alt] order kept, [And [x]] / [Not (Not x)] never collapsed). *)

open Alveare_frontend

type node = private {
  id : int;
  desc : desc;
  look_free : bool;  (** no lookaround anywhere below *)
  null : bool;       (** matches the empty string; valid iff [look_free] *)
}

and desc =
  | Bot                                     (** matches nothing *)
  | Eps                                     (** the empty string only *)
  | Chars of Charset.t                      (** one byte from the set *)
  | Cat of node * node                      (** right-nested *)
  | Alt of node list                        (** ordered: priority order *)
  | And of node list                        (** intersection, id-sorted *)
  | Not of node                             (** complement *)
  | Rep of node * int * int option * bool   (** body, qmin, qmax, greedy *)
  | Look of Ast.look * node                 (** zero-width predicate *)

type t
(** The interning arena and the mutex that serialises it (and the engine
    tables built on it) across domains. *)

val create : unit -> t
val size : t -> int
(** Number of distinct nodes currently interned. *)

val clear : t -> unit
(** Forget every interned node. Later nodes get fresh ids, so ids stay
    unique across a clear. *)

val lock : t -> Mutex.t

(** Smart constructors. The arena lock must be held by the caller —
    {!Engine} and {!Enumerate} take it once per public operation. *)

val bot : t -> node
val eps : t -> node
val top : t -> node
val chars : t -> Charset.t -> node
val cat : t -> node -> node -> node
val alt : t -> node list -> node
val inter : t -> node list -> node
val neg : t -> node -> node
val rep : t -> node -> int -> int option -> bool -> node
val look : t -> Ast.look -> node -> node

val is_bot : node -> bool
val is_eps : node -> bool
val is_top : node -> bool

val pred_opt : int option -> int option
(** Decrement a finite bound ([Some m] to [Some (m-1)]). *)

val of_ast : t -> Ast.t -> node
(** Translate a (possibly extended) frontend AST. *)

val full_set : Charset.t
(** All 256 bytes. *)

val charset_inter : Charset.t -> Charset.t -> Charset.t

val first_bytes : node -> Charset.t
(** Over-approximation of the bytes that can start a nonempty match.
    Only meaningful on look-free nodes. *)

