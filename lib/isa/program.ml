(* A compiled ALVEARE program: a sequence of instructions terminated by the
   End-of-RE control instruction. What a program must satisfy before the
   core runs it (jump targets in range, every OPEN closed by a close of
   its kind, exactly one EoR at the end) is checked by [Verify]. *)

open Instruction

type t = Instruction.t array

let length = Array.length

(* Code size as reported by the paper's Table 2: the EoR terminator is
   excluded from the count. *)
let code_size p = max 0 (Array.length p - 1)

let equal a b = Array.length a = Array.length b && Array.for_all2 Instruction.equal a b

let pp ppf p =
  Array.iteri (fun pc i -> Fmt.pf ppf "%3d: %a@." pc Instruction.pp i) p

let to_string p = Fmt.str "%a" pp p

(* Operator-class histogram, used by compiler statistics. *)
type histogram = {
  n_base_and : int;
  n_base_or : int;
  n_base_range : int;
  n_not : int;
  n_open : int;
  n_close : int;
  n_quant_greedy : int;
  n_quant_lazy : int;
  n_alt_close : int;
  n_eor : int;
}

let histogram (p : t) =
  let h =
    ref
      { n_base_and = 0; n_base_or = 0; n_base_range = 0; n_not = 0;
        n_open = 0; n_close = 0; n_quant_greedy = 0; n_quant_lazy = 0;
        n_alt_close = 0; n_eor = 0 }
  in
  Array.iter
    (fun i ->
       if is_eor i then h := { !h with n_eor = !h.n_eor + 1 }
       else begin
         if i.opn then h := { !h with n_open = !h.n_open + 1 };
         if i.neg then h := { !h with n_not = !h.n_not + 1 };
         (match i.base with
          | Some And -> h := { !h with n_base_and = !h.n_base_and + 1 }
          | Some Or -> h := { !h with n_base_or = !h.n_base_or + 1 }
          | Some Range -> h := { !h with n_base_range = !h.n_base_range + 1 }
          | None -> ());
         match i.close with
         | Some Close -> h := { !h with n_close = !h.n_close + 1 }
         | Some Quant_greedy -> h := { !h with n_quant_greedy = !h.n_quant_greedy + 1 }
         | Some Quant_lazy -> h := { !h with n_quant_lazy = !h.n_quant_lazy + 1 }
         | Some Alt_close -> h := { !h with n_alt_close = !h.n_alt_close + 1 }
         | None -> ()
       end)
    p;
  !h
