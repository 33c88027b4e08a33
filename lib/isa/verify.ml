(* Static verifier over instruction arrays (bytecode-verifier style):
   the one check an instruction array passes before it reaches a plan.

   Phases:
   1. structural — per-instruction well-formedness, EoR placement,
      open/close balance and kind compatibility, jump-target ranges
      (every field the core dereferences, enable bits notwithstanding);
      exported alone as [structural] for [Plan.of_program], the
      serialiser, the assembler and the [~verify:false] paths;
   2. graph — only when phase 1 is clean (a broken structure makes
      reachability meaningless): CFG reachability from address 0, and
      zero-advance cycle detection by DFS over the epsilon sub-graph;
   3. accounting — static sub-RE nesting depth and a worst-case
      speculation-stack bound: a bounded quantifier {n,m} multiplies its
      body's bound by at most m+1 snapshots (one per completed iteration
      plus the entry push), an alternation member adds its rollback
      push, sequence sums (snapshots persist until rollback, so
      concurrent liveness across siblings is real, not worst-case
      pessimism); any unbounded quantifier makes the depth
      input-dependent (None).

   The rejection modes mirror the non-termination analysis of
   backtracking matchers (Rathnayake & Thielecke): a verified program
   cannot jump outside its image, cannot abort on a context-mismatched
   close, and cannot loop without consuming input. *)

module I = Instruction

type violation =
  | Malformed_instruction of { pc : int; error : I.error }
  | Empty_program
  | Missing_eor
  | Interior_eor of { pc : int }
  | Bad_jump of { pc : int; which : string; target : int; length : int }
  | Unbalanced_close of { pc : int }
  | Unclosed_open of { pc : int }
  | Close_mismatch of { open_pc : int; close_pc : int; reason : string }
  | Unreachable of { pc : int }
  | Epsilon_loop of { cycle : int list }

let violation_message = function
  | Malformed_instruction { pc; error } ->
    Printf.sprintf "pc %d: malformed instruction: %s" pc
      (I.error_message error)
  | Empty_program -> "empty program"
  | Missing_eor -> "program does not end with EoR"
  | Interior_eor { pc } ->
    Printf.sprintf "pc %d: EoR in the middle of the program" pc
  | Bad_jump { pc; which; target; length } ->
    Printf.sprintf "pc %d: %s jump targets address %d outside program [0,%d)"
      pc which target length
  | Unbalanced_close { pc } ->
    Printf.sprintf "pc %d: close without a matching open" pc
  | Unclosed_open { pc } ->
    Printf.sprintf "pc %d: open sub-RE never closed" pc
  | Close_mismatch { open_pc; close_pc; reason } ->
    Printf.sprintf "pc %d: close does not match open at pc %d: %s" close_pc
      open_pc reason
  | Unreachable { pc } ->
    Printf.sprintf "pc %d: unreachable instruction (dead code)" pc
  | Epsilon_loop { cycle } ->
    Printf.sprintf "zero-advance cycle through pc [%s]: program can loop \
                    without consuming input"
      (String.concat "; " (List.map string_of_int cycle))

let pp_violation ppf v = Fmt.string ppf (violation_message v)

type report = {
  instructions : int;
  reachable : int;
  cfg_edges : int;
  pairs : (int * int) list;
  open_depth : int;
  stack_bound : int option;
  warnings : string list;
}

let pp_report ppf r =
  Fmt.pf ppf
    "instructions: %d@.reachable: %d@.cfg edges: %d@.sub-RE pairs: %d@.\
     max nesting: %d@.speculation-stack bound: %s@."
    r.instructions r.reachable r.cfg_edges (List.length r.pairs) r.open_depth
    (match r.stack_bound with
     | Some b -> string_of_int b
     | None -> "unbounded (input-dependent)");
  List.iter (fun w -> Fmt.pf ppf "warning: %s@." w) r.warnings

(* Primary sort key: the address a violation points at. *)
let violation_pc length = function
  | Empty_program -> 0
  | Missing_eor -> length
  | Malformed_instruction { pc; _ } | Interior_eor { pc } | Bad_jump { pc; _ }
  | Unbalanced_close { pc } | Unclosed_open { pc } | Unreachable { pc } ->
    pc
  | Close_mismatch { close_pc; _ } -> close_pc
  | Epsilon_loop { cycle } -> (match cycle with pc :: _ -> pc | [] -> 0)

let sort length vs =
  List.stable_sort
    (fun a b -> compare (violation_pc length a) (violation_pc length b))
    vs

(* --- Phase 1: structure ------------------------------------------------ *)

let structural_violations (p : Program.t) : violation list * string list =
  let n = Array.length p in
  let out = ref [] in
  let warnings = ref [] in
  let add v = out := v :: !out in
  let warn w = warnings := w :: !warnings in
  if n = 0 then ([ Empty_program ], [])
  else begin
    if not (I.is_eor p.(n - 1)) then add Missing_eor;
    Array.iteri
      (fun pc i ->
         (match I.validate i with
          | Error e -> add (Malformed_instruction { pc; error = e })
          | Ok () -> ());
         if pc < n - 1 && I.is_eor i then add (Interior_eor { pc });
         (* Jump ranges: the core dereferences fwd unconditionally (the
            enable bit gates only bwd), so every encoded target must be
            in range. *)
         match i.I.reference with
         | I.Ref_open o ->
           let fwd_target = pc + o.I.fwd in
           if fwd_target >= n then
             add (Bad_jump { pc; which = "forward"; target = fwd_target;
                             length = n });
           let bwd_target = pc + o.I.bwd in
           if o.I.bwd_enabled && (bwd_target < 0 || bwd_target >= n) then
             add (Bad_jump { pc; which = "backward"; target = bwd_target;
                             length = n });
           if (o.I.min_enabled || o.I.max_enabled) && not o.I.fwd_enabled then
             warn
               (Printf.sprintf
                  "pc %d: quantifier OPEN with a disabled forward-jump \
                   enable bit (the core jumps to %d regardless)"
                  pc fwd_target)
         | I.Ref_none | I.Ref_chars _ -> ())
      p;
    (* Open/close balance and context-kind compatibility. *)
    let stack = ref [] in
    Array.iteri
      (fun pc i ->
         if i.I.opn then stack := pc :: !stack;
         match i.I.close with
         | None -> ()
         | Some c ->
           (match !stack with
            | [] -> add (Unbalanced_close { pc })
            | open_pc :: rest ->
              stack := rest;
              (match p.(open_pc).I.reference with
               | I.Ref_open o ->
                 let quantified = o.I.min_enabled || o.I.max_enabled in
                 (match c, quantified with
                  | (I.Quant_greedy | I.Quant_lazy), false ->
                    add
                      (Close_mismatch
                         { open_pc; close_pc = pc;
                           reason = "quantified close against an \
                                     alternation-member OPEN" })
                  | (I.Close | I.Alt_close), true ->
                    add
                      (Close_mismatch
                         { open_pc; close_pc = pc;
                           reason = "plain/alternation close against a \
                                     quantifier OPEN" })
                  | I.Quant_greedy, true when o.I.lazy_mode ->
                    warn
                      (Printf.sprintf
                         "pc %d: greedy close against a lazy OPEN at pc %d \
                          (the OPEN's mode wins)" pc open_pc)
                  | I.Quant_lazy, true when not o.I.lazy_mode ->
                    warn
                      (Printf.sprintf
                         "pc %d: lazy close against a greedy OPEN at pc %d \
                          (the OPEN's mode wins)" pc open_pc)
                  | _, _ -> ())
               | I.Ref_none | I.Ref_chars _ ->
                 (* malformed open, already reported *)
                 ())))
      p;
    List.iter (fun pc -> add (Unclosed_open { pc })) !stack;
    (List.rev !out, List.rev !warnings)
  end

let structural p = sort (Array.length p) (fst (structural_violations p))

(* --- Phase 2: graph ---------------------------------------------------- *)

let reachability (cfg : Cfg.t) : bool array =
  let n = Array.length cfg.Cfg.kinds in
  let seen = Array.make n false in
  let rec visit pc =
    if pc >= 0 && pc < n && not seen.(pc) then begin
      seen.(pc) <- true;
      List.iter (fun e -> visit e.Cfg.dst) (Cfg.successors cfg pc)
    end
  in
  if n > 0 then visit 0;
  seen

(* First zero-advance cycle in the epsilon sub-graph (DFS, grey/black
   colouring); the returned addresses form the loop in execution order. *)
let epsilon_cycle (cfg : Cfg.t) : int list option =
  let n = Array.length cfg.Cfg.kinds in
  let colour = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let found = ref None in
  let rec visit path pc =
    if !found = None then begin
      colour.(pc) <- 1;
      List.iter
        (fun e ->
           if !found = None && Cfg.epsilon_edge e then begin
             let dst = e.Cfg.dst in
             if colour.(dst) = 1 then begin
               let rec cut = function
                 | [] -> []
                 | x :: rest -> if x = dst then [ x ] else x :: cut rest
               in
               found := Some (List.rev (cut (pc :: path)))
             end
             else if colour.(dst) = 0 then visit (pc :: path) dst
           end)
        (Cfg.successors cfg pc);
      colour.(pc) <- 2
    end
  in
  for pc = 0 to n - 1 do
    if colour.(pc) = 0 && !found = None then visit [] pc
  done;
  !found

(* --- Phase 3: accounting ----------------------------------------------- *)

let ( +? ) a b =
  match a, b with Some a, Some b -> Some (a + b) | _, _ -> None

(* Worst-case speculation-stack depth of the region [lo, hi). Gated on a
   clean phase 1, so every open in the region has its matching close. *)
let rec stack_bound_region (kinds : Cfg.node_kind array) close_of lo hi
  : int option =
  if lo >= hi then Some 0
  else begin
    match kinds.(lo) with
    | Cfg.Open_quant { qmax; _ } ->
      let close = close_of lo in
      let inner = stack_bound_region kinds close_of (lo + 1) close in
      let this =
        match qmax, inner with
        | Some m, Some b -> Some ((m + 1) * (b + 1))
        | None, _ | _, None -> None
      in
      this +? stack_bound_region kinds close_of (close + 1) hi
    | Cfg.Open_alt { next; _ } ->
      let close = close_of lo in
      let inner = stack_bound_region kinds close_of (lo + 1) close in
      let this =
        match inner with
        | Some b -> Some ((if next <> None then 1 else 0) + b)
        | None -> None
      in
      this +? stack_bound_region kinds close_of (close + 1) hi
    | Cfg.Eor | Cfg.Base _ | Cfg.Close _ | Cfg.Junk ->
      stack_bound_region kinds close_of (lo + 1) hi
  end

let open_depth (p : Program.t) : int =
  let depth = ref 0 and best = ref 0 in
  Array.iter
    (fun (i : I.t) ->
       if i.I.opn then begin
         incr depth;
         if !depth > !best then best := !depth
       end;
       match i.I.close with
       | Some _ -> if !depth > 0 then decr depth
       | None -> ())
    p;
  !best

(* --- Driver ------------------------------------------------------------ *)

let run (p : Program.t) : (report, violation list) result =
  let n = Array.length p in
  let structural, warnings = structural_violations p in
  if structural <> [] then Error (sort n structural)
  else begin
    let cfg = Cfg.build p in
    let seen = reachability cfg in
    let dead = ref [] in
    Array.iteri
      (fun pc reached -> if not reached then dead := Unreachable { pc } :: !dead)
      seen;
    let graph_violations =
      List.rev !dead
      @ (match epsilon_cycle cfg with
         | Some cycle -> [ Epsilon_loop { cycle } ]
         | None -> [])
    in
    if graph_violations <> [] then Error (sort n graph_violations)
    else begin
      let close_table = Hashtbl.create 16 in
      List.iter
        (fun (o, c) -> Hashtbl.replace close_table o c)
        cfg.Cfg.pairs;
      let close_of o = Hashtbl.find close_table o in
      let reachable = Array.fold_left (fun k r -> if r then k + 1 else k) 0 seen in
      Ok
        { instructions = n;
          reachable;
          cfg_edges = Cfg.edge_count cfg;
          pairs = cfg.Cfg.pairs;
          open_depth = open_depth p;
          stack_bound = stack_bound_region cfg.Cfg.kinds close_of 0 n;
          warnings }
    end
  end

let run_exn p =
  match run p with
  | Ok r -> r
  | Error (v :: _) -> invalid_arg ("Verify.run: " ^ violation_message v)
  | Error [] -> invalid_arg "Verify.run: rejected with no violations"
