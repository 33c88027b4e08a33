(* Aho-Corasick automaton over byte strings.

   Build: trie insertion with per-node hashtables, then a BFS pass that
   fills failure links and merges output sets (out(v) includes out of
   every proper suffix state). The result is frozen into CSR arrays:
   per state a sorted slice of (byte, target) goto edges, a failure
   link, and the pattern indices ending there. Matching walks the goto
   function and follows failure links on miss — amortised O(1) per
   input byte plus one callback per reported occurrence. *)

type builder = {
  mutable b_children : (char, int) Hashtbl.t array;
  mutable b_fail : int array;
  mutable b_out : int list array;
  mutable b_count : int;
}

let new_builder () =
  { b_children = Array.init 16 (fun _ -> Hashtbl.create 4);
    b_fail = Array.make 16 0;
    b_out = Array.make 16 [];
    b_count = 1 }

let grow b =
  let cap = Array.length b.b_fail in
  if b.b_count = cap then begin
    let cap' = cap * 2 in
    let children = Array.init cap' (fun _ -> Hashtbl.create 4) in
    Array.blit b.b_children 0 children 0 cap;
    b.b_children <- children;
    let fail = Array.make cap' 0 in
    Array.blit b.b_fail 0 fail 0 cap;
    b.b_fail <- fail;
    let out = Array.make cap' [] in
    Array.blit b.b_out 0 out 0 cap;
    b.b_out <- out
  end

let add_state b =
  grow b;
  let s = b.b_count in
  b.b_count <- b.b_count + 1;
  s

let insert b idx pattern =
  if pattern = "" then invalid_arg "Ac.build: empty literal";
  let s = ref 0 in
  String.iter
    (fun c ->
       match Hashtbl.find_opt b.b_children.(!s) c with
       | Some v -> s := v
       | None ->
         let v = add_state b in
         Hashtbl.add b.b_children.(!s) c v;
         s := v)
    pattern;
  b.b_out.(!s) <- idx :: b.b_out.(!s)

type t = {
  (* CSR goto: state s owns edges [edge_off.(s), edge_off.(s+1)) *)
  edge_off : int array;
  edge_chars : Bytes.t;
  edge_targets : int array;
  fail : int array;
  out : int array array;      (* pattern indices ending at this state *)
  pattern_lengths : int array;
  n_patterns : int;
}

let goto_builder b s c = Hashtbl.find_opt b.b_children.(s) c

(* Next state when reading [c] in [s], following failure links. *)
let rec step_builder b s c =
  match goto_builder b s c with
  | Some v -> v
  | None -> if s = 0 then 0 else step_builder b b.b_fail.(s) c

let build patterns =
  let patterns = Array.of_list patterns in
  let b = new_builder () in
  Array.iteri (fun i p -> insert b i p) patterns;
  (* BFS: fail links + suffix-output merging. *)
  let queue = Queue.create () in
  Hashtbl.iter (fun _ v -> Queue.add v queue) b.b_children.(0);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Hashtbl.iter
      (fun c v ->
         b.b_fail.(v) <- step_builder b b.b_fail.(u) c;
         b.b_out.(v) <- b.b_out.(v) @ b.b_out.(b.b_fail.(v));
         Queue.add v queue)
      b.b_children.(u)
  done;
  (* Freeze into CSR form with sorted edge slices. *)
  let n = b.b_count in
  let edge_off = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    edge_off.(s + 1) <- edge_off.(s) + Hashtbl.length b.b_children.(s)
  done;
  let m = edge_off.(n) in
  let edge_chars = Bytes.make m '\000' in
  let edge_targets = Array.make m 0 in
  for s = 0 to n - 1 do
    let edges =
      Hashtbl.fold (fun c v acc -> (c, v) :: acc) b.b_children.(s) []
      |> List.sort compare
    in
    List.iteri
      (fun k (c, v) ->
         Bytes.set edge_chars (edge_off.(s) + k) c;
         edge_targets.(edge_off.(s) + k) <- v)
      edges
  done;
  { edge_off;
    edge_chars;
    edge_targets;
    fail = Array.sub b.b_fail 0 n;
    out = Array.init n (fun s -> Array.of_list (List.sort_uniq compare b.b_out.(s)));
    pattern_lengths = Array.map String.length patterns;
    n_patterns = Array.length patterns }

let pattern_count t = t.n_patterns
let state_count t = Array.length t.fail

(* Binary search for [c] in state [s]'s sorted edge slice. *)
let goto t s c =
  let lo = ref t.edge_off.(s) and hi = ref (t.edge_off.(s + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let mc = Bytes.unsafe_get t.edge_chars mid in
    if mc = c then begin found := t.edge_targets.(mid); lo := !hi + 1 end
    else if mc < c then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let rec step t s c =
  let v = goto t s c in
  if v >= 0 then v else if s = 0 then 0 else step t t.fail.(s) c

let find_iter ?(from = 0) t input f =
  let n = String.length input in
  let s = ref 0 in
  for i = max 0 from to n - 1 do
    s := step t !s (String.unsafe_get input i);
    let out = t.out.(!s) in
    for k = 0 to Array.length out - 1 do
      let pat = out.(k) in
      f ~pat ~pos:(i + 1 - t.pattern_lengths.(pat))
    done
  done

let find_all ?from t input =
  let acc = ref [] in
  find_iter ?from t input (fun ~pat ~pos -> acc := (pat, pos) :: !acc);
  List.rev !acc

(* --- Incremental driving ---------------------------------------------- *)

(* The fused ruleset sweep steps the automaton one byte at a time,
   interleaved with per-rule dispatch, so the walk state and the output
   sets are exposed directly. [root] is the start state; [outputs]
   returns the internal array — callers must not mutate it. *)

let root = 0
let outputs t s = t.out.(s)
let pattern_length t pat = t.pattern_lengths.(pat)
