(* Back-end (paper §5): linearise the IR depth-first, fuse closing
   operators into preceding base instructions, resolve relative jumps, and
   terminate with EoR.

   Jump conventions (DESIGN.md):
   - a quantifier OPEN stores bwd = 0 (the paper's worked example; the
     body always starts at open+1) and fwd = offset from the OPEN to the
     instruction following the quantified close;
   - an alternation-member OPEN stores bwd = offset to the next member's
     OPEN (absent for the last member) and fwd = offset to the end of the
     whole chain. *)

module I = Alveare_isa.Instruction

type error =
  | Backward_jump_too_long of { offset : int; limit : int }
  | Forward_jump_too_long of { offset : int; limit : int }

let error_message = function
  | Backward_jump_too_long { offset; limit } ->
    Printf.sprintf
      "sub-RE too long: backward jump of %d exceeds the %d-instruction limit"
      offset limit
  | Forward_jump_too_long { offset; limit } ->
    Printf.sprintf
      "sub-RE too long: forward jump of %d exceeds the %d-instruction limit"
      offset limit

exception Emit_error of error

(* Pre-instructions: close operators start unattached and are fused by
   [append_close] when the preceding item can carry them. *)
type open_kind =
  | Open_quant of { qmin : int; qmax : int option; greedy : bool }
  | Open_alt of { lbl_next : int option }

type pre = {
  base : Alveare_ir.Ir.base option;
  close : I.close_op option;
  opened : (open_kind * int) option; (* kind, end label *)
}

type item =
  | Instr of pre
  | Mark of int

let plain_base b = Instr { base = Some b; close = None; opened = None }

let plain_open kind lbl_end =
  Instr { base = None; close = None; opened = Some (kind, lbl_end) }

(* Fuse [close] into the final item when that item is a pure base
   instruction; otherwise emit a standalone close (paper §5: "only the one
   nearest to the base operator is merged"). [fuse:false] always emits a
   standalone close — the back-end ablation knob. *)
let append_close ~fuse items close =
  let standalone = Instr { base = None; close = Some close; opened = None } in
  let rec go = function
    | [] -> [ standalone ]
    | [ Instr ({ base = Some _; close = None; opened = None } as p) ] when fuse
      -> [ Instr { p with close = Some close } ]
    | [ last ] -> [ last; standalone ]
    | x :: rest -> x :: go rest
  in
  go items

let fresh_label counter =
  incr counter;
  !counter

let rec linearize ~fuse counter (node : Alveare_ir.Ir.t) : item list =
  match node with
  | Alveare_ir.Ir.Base b -> [ plain_base b ]
  | Alveare_ir.Ir.Seq parts -> List.concat_map (linearize ~fuse counter) parts
  | Alveare_ir.Ir.Quant { body; qmin; qmax; greedy } ->
    let lbl_end = fresh_label counter in
    let close = if greedy then I.Quant_greedy else I.Quant_lazy in
    (plain_open (Open_quant { qmin; qmax; greedy }) lbl_end
     :: append_close ~fuse (linearize ~fuse counter body) close)
    @ [ Mark lbl_end ]
  | Alveare_ir.Ir.Chain members ->
    let lbl_end = fresh_label counter in
    let n = List.length members in
    let labels = List.map (fun _ -> fresh_label counter) members in
    let items =
      List.concat
        (List.mapi
           (fun k member ->
              let lbl_self = List.nth labels k in
              let lbl_next = if k + 1 < n then Some (List.nth labels (k + 1)) else None in
              let close = if k + 1 < n then I.Alt_close else I.Close in
              (Mark lbl_self
               :: plain_open (Open_alt { lbl_next }) lbl_end
               :: append_close ~fuse (linearize ~fuse counter member) close))
           members)
    in
    items @ [ Mark lbl_end ]

(* Resolve marks to addresses and build the final instruction array. *)
let assemble (items : item list) : I.t array =
  let positions = Hashtbl.create 16 in
  let pos = ref 0 in
  List.iter
    (function
      | Mark lbl -> Hashtbl.replace positions lbl !pos
      | Instr _ -> incr pos)
    items;
  let total = !pos in
  let out = Array.make (total + 1) I.eor in
  let addr = ref 0 in
  let jump_to lbl = Hashtbl.find positions lbl in
  List.iter
    (function
      | Mark _ -> ()
      | Instr p ->
        let here = !addr in
        let instr =
          match p.opened with
          | Some (kind, lbl_end) ->
            let fwd = jump_to lbl_end - here in
            if fwd > I.max_extended_fwd then
              raise
                (Emit_error
                   (Forward_jump_too_long
                      { offset = fwd; limit = I.max_extended_fwd }));
            let open_ref =
              match kind with
              | Open_quant { qmin; qmax; greedy } ->
                { I.min_enabled = true;
                  max_enabled = true;
                  bwd_enabled = true;
                  fwd_enabled = true;
                  lazy_mode = not greedy;
                  min_count = qmin;
                  max_count =
                    (match qmax with Some m -> m | None -> I.unbounded_max);
                  bwd = 0;
                  fwd }
              | Open_alt { lbl_next } ->
                let bwd =
                  match lbl_next with Some lbl -> jump_to lbl - here | None -> 0
                in
                if bwd > I.max_jump then
                  raise
                    (Emit_error
                       (Backward_jump_too_long
                          { offset = bwd; limit = I.max_jump }));
                { I.min_enabled = false;
                  max_enabled = false;
                  bwd_enabled = lbl_next <> None;
                  fwd_enabled = true;
                  lazy_mode = false;
                  min_count = 0;
                  max_count = 0;
                  bwd;
                  fwd }
            in
            I.open_sub open_ref
          | None ->
            let instr =
              match p.base with
              | Some { Alveare_ir.Ir.op; neg; chars } -> I.base ~neg op chars
              | None -> I.eor
            in
            (match p.close with
             | Some c ->
               if instr = I.eor then I.close c else I.fuse_close instr c
             | None -> instr)
        in
        out.(here) <- instr;
        incr addr)
    items;
  out

let program_of_ir ?(fuse = true) (ir : Alveare_ir.Ir.t)
  : (Alveare_isa.Program.t, error) result =
  match
    let counter = ref 0 in
    assemble (linearize ~fuse counter ir)
  with
  | program -> Ok program
  | exception Emit_error e -> Error e

let program_of_ir_exn ?fuse ir =
  match program_of_ir ?fuse ir with
  | Ok p -> p
  | Error e -> invalid_arg ("Emit.program_of_ir: " ^ error_message e)
