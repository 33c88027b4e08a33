(* Host-parallel execution layer tests.

   The parallel layer is only admissible if it is invisible: for any
   worker count, every routed subsystem must return byte-identical
   results to its sequential run. This battery locks that invariant down
   for the Pool itself, Multicore.run, Ruleset compile/scan and the
   harness engine sweep, and covers the compile cache (LRU order,
   counters, cached-vs-fresh equality, multi-domain hammer). *)

module Pool = Alveare_exec.Pool
module Cache = Alveare_exec.Cache
module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Multicore = Alveare_multicore.Multicore
module E = Alveare_harness.Experiments
module Rng = Alveare_workloads.Rng
module Gen_ast = Alveare_test_support.Gen_ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let worker_counts = [ 1; 2; 4; 8 ]

(* --- Pool ------------------------------------------------------------- *)

let test_pool_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  (* uneven task costs so work stealing actually reorders execution *)
  let f i =
    let acc = ref i in
    for _ = 1 to (i mod 7) * 1000 do incr acc done;
    !acc - ((i mod 7) * 1000)
  in
  let expected = Array.map f xs in
  List.iter
    (fun workers ->
       check (Printf.sprintf "map workers=%d" workers) true
         (Pool.map ~workers f xs = expected))
    worker_counts

let test_pool_init_and_list () =
  List.iter
    (fun workers ->
       check "init" true
         (Pool.init ~workers 10 (fun i -> i * i)
          = Array.init 10 (fun i -> i * i));
       check "map_list" true
         (Pool.map_list ~workers string_of_int [ 3; 1; 2 ] = [ "3"; "1"; "2" ]);
       check "run" true
         (Pool.run ~workers [ (fun () -> 1); (fun () -> 2) ] = [ 1; 2 ]))
    worker_counts

let test_pool_empty_and_single () =
  check "empty" true (Pool.map ~workers:4 (fun x -> x) [||] = [||]);
  check "single" true (Pool.map ~workers:4 (fun x -> x + 1) [| 41 |] = [| 42 |])

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun workers ->
       match Pool.map ~workers (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
               (Array.init 20 (fun i -> i))
       with
       | _ -> Alcotest.fail "expected exception"
       | exception Boom _ -> ())
    worker_counts

(* queue_depth: the serving layer's backlog gauge. Inside a running map
   every submitted-but-unfinished task is visible; once the call returns
   the count is back to zero — including when a task raised, where the
   never-run remainder must be settled rather than leaked. *)
let test_pool_queue_depth () =
  check_int "idle pool is empty" 0 (Pool.queue_depth ());
  List.iter
    (fun workers ->
       let seen = Atomic.make 0 in
       let observed_inside =
         Pool.map ~workers
           (fun i ->
              Atomic.incr seen;
              (* every task still submitted (at least this one) is pending *)
              Pool.queue_depth () >= 1 && i >= 0)
           (Array.init 16 (fun i -> i))
       in
       check_int "all tasks ran" 16 (Atomic.get seen);
       check (Printf.sprintf "depth visible inside tasks, workers=%d" workers)
         true
         (Array.for_all Fun.id observed_inside);
       check_int
         (Printf.sprintf "depth zero after map, workers=%d" workers)
         0 (Pool.queue_depth ()))
    worker_counts;
  (* a raising task must not leak outstanding counts *)
  List.iter
    (fun workers ->
       (match
          Pool.map ~workers
            (fun i -> if i = 7 then raise (Boom i) else i)
            (Array.init 20 (fun i -> i))
        with
       | _ -> Alcotest.fail "expected exception"
       | exception Boom _ -> ());
       check_int
         (Printf.sprintf "depth zero after exception, workers=%d" workers)
         0 (Pool.queue_depth ()))
    worker_counts

(* --- Determinism battery (qcheck) -------------------------------------- *)

(* Multicore.run: full result record (matches, wall cycles, totals, every
   per-core stat) identical for all worker counts. *)
let prop_multicore_deterministic =
  QCheck2.Test.make ~name:"multicore parallel = sequential" ~count:40
    ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      match Compile.compile_ast ast with
      | Error _ -> true (* legitimately uncompilable *)
      | Ok c ->
        let config = Multicore.config ~cores:3 ~overlap:16 () in
        let reference = Multicore.run ~config c.Compile.program input in
        List.for_all
          (fun workers ->
             Multicore.run ~workers ~config c.Compile.program input = reference)
          worker_counts)

(* The stitch re-attempts on the host after the pool returns, with the
   run's own candidate source: the whole result is the same for every
   worker count on the first-set and explicit-candidate sources too.
   Inputs are tripled so that matches cross slice boundaries. *)
let prop_multicore_sources_deterministic =
  QCheck2.Test.make ~name:"multicore stitch parallel = sequential, every source"
    ~count:40 ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input
    (fun (ast, input) ->
      let input = Gen_ast.cap_exponential ast (input ^ input ^ input) in
      match Compile.compile_ast ast with
      | Error _ -> true
      | Ok c ->
        let config = Multicore.config ~cores:3 ~overlap:16 () in
        let candidates =
          Array.init ((String.length input / 2) + 1) (fun i -> 2 * i)
        in
        List.for_all
          (fun run ->
             let reference = run 1 in
             List.for_all (fun workers -> run workers = reference)
               worker_counts)
          [ (fun workers ->
               Multicore.run ~workers ~prefilter:c.Compile.prefilter ~config
                 c.Compile.program input);
            (fun workers ->
               Multicore.run ~workers ~candidates ~config c.Compile.program
                 input) ])

(* --- Ruleset ----------------------------------------------------------- *)

let ruleset_specs =
  [ ("r0", "ab+c"); ("r1", "[ab]{2,4}"); ("r2", "abc|abd"); ("r3", "a+b");
    ("r4", "ab+c") (* duplicate pattern: shares r0's compilation *) ]

let random_input seed len =
  let rng = Rng.create seed in
  String.init len (fun _ -> Rng.char_of rng "abcdz")

let test_ruleset_scan_deterministic () =
  let t = Ruleset.compile_exn ruleset_specs in
  List.iter
    (fun seed ->
       let input = random_input seed 4096 in
       let reference = Ruleset.scan ~cores:2 t input in
       List.iter
         (fun workers ->
            check (Printf.sprintf "seed=%d workers=%d" seed workers) true
              (Ruleset.scan ~cores:2 ~workers t input = reference))
         worker_counts)
    [ 1; 2; 3 ]

let test_ruleset_parallel_compile_equal () =
  let binaries t =
    List.map
      (fun (r : Ruleset.compiled_rule) ->
         Result.get_ok (Compile.to_binary r.Ruleset.compiled))
      (Array.to_list t.Ruleset.rules)
  in
  let seq = Ruleset.compile_exn ~cache:(Compile.create_cache ()) ruleset_specs in
  List.iter
    (fun workers ->
       let par =
         Ruleset.compile_exn ~cache:(Compile.create_cache ()) ~workers
           ruleset_specs
       in
       check (Printf.sprintf "workers=%d rules" workers) true
         (Ruleset.rules par = Ruleset.rules seq);
       check (Printf.sprintf "workers=%d binaries" workers) true
         (binaries par = binaries seq))
    worker_counts

(* --- Harness engine sweep ---------------------------------------------- *)

(* A deliberately tiny scale so the full (engine x pattern) sweep runs in
   milliseconds; floats are compared exactly — byte-identical rows. *)
let tiny_scale : E.scale =
  { E.suite_spec =
      (fun kind ->
         { (Alveare_workloads.Benchmark.quick_spec ~seed:13 kind) with
           Alveare_workloads.Benchmark.n_patterns = 3;
           stream_bytes = 32 * 1024 });
    sim_sample_bytes = 2048;
    gpu_sample_bytes = 512 }

let test_harness_sweep_deterministic () =
  let kind = Alveare_workloads.Benchmark.Powren in
  let reference = E.evaluate_benchmark ~scale:tiny_scale kind in
  List.iter
    (fun workers ->
       check (Printf.sprintf "workers=%d" workers) true
         (E.evaluate_benchmark ~workers ~scale:tiny_scale kind = reference))
    worker_counts

(* --- Cache ------------------------------------------------------------- *)

let test_cache_lru_eviction_order () =
  let c : int Cache.t = Cache.create ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  (* touch "a" so "b" becomes the LRU entry *)
  check "a hit" true (Cache.find_opt c "a" = Some 1);
  Cache.add c "d" 4;
  check "b evicted" true (Cache.find_opt c "b" = None);
  check "a survives" true (Cache.find_opt c "a" = Some 1);
  check "c survives" true (Cache.find_opt c "c" = Some 3);
  check "d present" true (Cache.find_opt c "d" = Some 4);
  (* replacing an existing key is not an insertion: no eviction *)
  Cache.add c "d" 40;
  check "d replaced" true (Cache.find_opt c "d" = Some 40);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check_int "size at capacity" 3 s.Cache.size

let test_cache_counters () =
  let c : string Cache.t = Cache.create ~capacity:2 () in
  check "miss" true (Cache.find_opt c "x" = None);
  check "produced" true (Cache.find_or_add c "x" (fun k -> k ^ "!") = "x!");
  check "hit" true (Cache.find_opt c "x" = Some "x!");
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  (* find_opt miss + find_or_add's internal miss *)
  check_int "misses" 2 s.Cache.misses;
  check_int "evictions" 0 s.Cache.evictions;
  check_int "size" 1 s.Cache.size;
  check_int "capacity" 2 s.Cache.capacity;
  Cache.clear c;
  check_int "cleared" 0 (Cache.length c);
  check_int "counters survive clear" 1 (Cache.stats c).Cache.hits

let test_cached_compile_equals_fresh () =
  let cache = Compile.create_cache () in
  let pattern = "Host: [a-z0-9.-]{4,24}" in
  let fresh = Compile.compile_exn pattern in
  let c1 = Result.get_ok (Compile.cached ~cache pattern) in
  let c2 = Result.get_ok (Compile.cached ~cache pattern) in
  check "cached binary = fresh binary" true
    (Compile.to_binary c1 = Compile.to_binary fresh);
  check "second lookup returns the cached value" true (c1 == c2);
  let s = Compile.cache_stats cache in
  check_int "one hit" 1 s.Cache.hits;
  check_int "one miss" 1 s.Cache.misses

let test_cached_distinguishes_options () =
  let cache = Compile.create_cache () in
  let pattern = "[abc]{2,5}" in
  let adv = Result.get_ok (Compile.cached ~cache pattern) in
  let min_ =
    Result.get_ok
      (Compile.cached ~cache ~options:Alveare_ir.Lower.minimal_options pattern)
  in
  check "different options -> different entries" true
    (Compile.to_binary adv <> Compile.to_binary min_);
  check_int "two distinct entries" 2 (Compile.cache_stats cache).Cache.size

let test_ruleset_cache_hits_on_repeats () =
  (* A ruleset looks each distinct pattern up once (a repeated rule
     shares the first one's compilation without a lookup of its own);
     a ruleset built again hits the cache for every pattern, and cached
     binaries equal uncached compilation. *)
  let cache = Compile.create_cache () in
  let t = Ruleset.compile_exn ~cache ruleset_specs in
  let s = Compile.cache_stats cache in
  check_int "distinct patterns compiled once" 4 s.Cache.misses;
  check_int "no lookup for the repeated rule" 0 s.Cache.hits;
  ignore (Ruleset.compile_exn ~cache ruleset_specs);
  check_int "a rebuilt ruleset hits" 4 (Compile.cache_stats cache).Cache.hits;
  Array.iter
    (fun (r : Ruleset.compiled_rule) ->
       let fresh = Compile.compile_exn r.Ruleset.rule.Ruleset.pattern in
       check "cached binary = uncached binary" true
         (Compile.to_binary r.Ruleset.compiled = Compile.to_binary fresh))
    t.Ruleset.rules

let test_cache_multi_domain_hammer () =
  let domains = 4 and lookups = 2000 and distinct = 13 in
  let c : int Cache.t = Cache.create ~capacity:7 () in
  (* each worker hammers overlapping keys; values are key-derived so any
     torn or misfiled entry shows up as a wrong lookup result *)
  let wrong =
    Pool.init ~workers:domains domains (fun d ->
        let rng = Rng.create (100 + d) in
        let wrong = ref 0 in
        for _ = 1 to lookups do
          let k = Rng.int rng distinct in
          let v = Cache.find_or_add c (string_of_int k) (fun _ -> k * 1000) in
          if v <> k * 1000 then incr wrong
        done;
        !wrong)
  in
  check_int "no torn or misfiled values" 0 (Array.fold_left ( + ) 0 wrong);
  let s = Cache.stats c in
  check_int "hits + misses = lookups" (domains * lookups)
    (s.Cache.hits + s.Cache.misses);
  check "bounded" true (s.Cache.size <= s.Cache.capacity);
  check "evictions happened (capacity < keys)" true (s.Cache.evictions > 0)

let () =
  Alcotest.run "exec"
    [ ( "pool",
        [ Alcotest.test_case "map = sequential map" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "init/map_list/run" `Quick test_pool_init_and_list;
          Alcotest.test_case "empty and single" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "queue depth gauge" `Quick
            test_pool_queue_depth ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [ prop_multicore_deterministic;
            prop_multicore_sources_deterministic ]
        @ [ Alcotest.test_case "ruleset scan" `Quick
              test_ruleset_scan_deterministic;
            Alcotest.test_case "ruleset parallel compile" `Quick
              test_ruleset_parallel_compile_equal;
            Alcotest.test_case "harness sweep" `Quick
              test_harness_sweep_deterministic ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction order" `Quick
            test_cache_lru_eviction_order;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "cached = fresh" `Quick
            test_cached_compile_equals_fresh;
          Alcotest.test_case "options in key" `Quick
            test_cached_distinguishes_options;
          Alcotest.test_case "ruleset repeats hit" `Quick
            test_ruleset_cache_hits_on_repeats;
          Alcotest.test_case "multi-domain hammer" `Quick
            test_cache_multi_domain_hammer ] ) ]
