module Task_pool = Holistic_parallel.Task_pool
module Obs = Holistic_obs.Obs

let test_run_list_results () =
  let pool = Task_pool.create 1 in
  let acc = Array.make 10 0 in
  Task_pool.run_list pool (List.init 10 (fun i () -> acc.(i) <- i * 2));
  Alcotest.(check (array int)) "all tasks ran" (Array.init 10 (fun i -> i * 2)) acc;
  Task_pool.shutdown pool

let test_run_list_multi_domain () =
  let pool = Task_pool.create 4 in
  let acc = Array.make 200 0 in
  Task_pool.run_list pool (List.init 200 (fun i () -> acc.(i) <- i + 1));
  Alcotest.(check int) "sum" (200 * 201 / 2) (Array.fold_left ( + ) 0 acc);
  Task_pool.shutdown pool

exception Boom

let test_exception_propagation () =
  let pool = Task_pool.create 2 in
  let ran_rest = ref 0 in
  (try
     Task_pool.run_list pool
       [ (fun () -> raise Boom); (fun () -> incr ran_rest); (fun () -> incr ran_rest) ];
     Alcotest.fail "expected exception"
   with Boom -> ());
  (* tasks after the failing one still ran to completion *)
  Alcotest.(check int) "remaining tasks completed" 2 !ran_rest;
  (* the pool is reusable after an error *)
  let ok = ref false in
  Task_pool.run_list pool [ (fun () -> ok := true) ];
  Alcotest.(check bool) "pool reusable" true !ok;
  Task_pool.shutdown pool

let test_exception_inline () =
  (* the n=1 pool runs tasks inline on the caller: same error contract *)
  let pool = Task_pool.create 1 in
  let ran_rest = ref 0 in
  (try
     Task_pool.run_list pool
       [ (fun () -> raise Boom); (fun () -> incr ran_rest); (fun () -> incr ran_rest) ];
     Alcotest.fail "expected exception"
   with Boom -> ());
  Alcotest.(check int) "remaining tasks completed" 2 !ran_rest;
  let ok = ref false in
  Task_pool.run_list pool [ (fun () -> ok := true) ];
  Alcotest.(check bool) "pool reusable" true !ok;
  Task_pool.shutdown pool

let test_exception_first_only () =
  (* several tasks raise: exactly one exception surfaces, after the batch *)
  let pool = Task_pool.create 3 in
  (try
     Task_pool.run_list pool (List.init 6 (fun i () -> if i mod 2 = 0 then raise Boom));
     Alcotest.fail "expected exception"
   with Boom -> ());
  Task_pool.shutdown pool

let test_parallel_for_exception () =
  let pool = Task_pool.create 2 in
  let covered = Array.make 100 0 in
  (try
     Task_pool.parallel_for pool ~lo:0 ~hi:100 ~chunk:13 (fun lo hi ->
         if lo = 26 then raise Boom;
         for i = lo to hi - 1 do
           covered.(i) <- 1
         done);
     Alcotest.fail "expected exception"
   with Boom -> ());
  (* chunks other than the failing one ran *)
  Alcotest.(check int) "other chunks completed" (100 - 13) (Array.fold_left ( + ) 0 covered);
  let ok = ref false in
  Task_pool.run_list pool [ (fun () -> ok := true) ];
  Alcotest.(check bool) "pool reusable" true !ok;
  Task_pool.shutdown pool

let test_exception_stats_consistent () =
  (* with tracing on, raising tasks are still counted and timed, and the
     error still surfaces on the caller *)
  let pool = Task_pool.create 2 in
  Obs.reset ();
  Obs.enable ();
  Task_pool.reset_stats pool;
  (try
     Task_pool.run_list pool (List.init 5 (fun i () -> if i = 0 then raise Boom));
     Alcotest.fail "expected exception"
   with Boom -> ());
  Obs.disable ();
  let sum f = Array.fold_left (fun a st -> a + f st) 0 (Task_pool.worker_stats pool) in
  Alcotest.(check int) "every task counted, raising one included" 5
    (sum (fun st -> st.Task_pool.tasks));
  Alcotest.(check bool) "busy time non-negative" true (sum (fun st -> st.Task_pool.busy_ns) >= 0);
  Obs.reset ();
  Task_pool.shutdown pool

let test_parallel_for_coverage () =
  let pool = Task_pool.create 3 in
  let hits = Array.make 1000 0 in
  Task_pool.parallel_for pool ~lo:0 ~hi:1000 ~chunk:37 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index exactly once" true (Array.for_all (( = ) 1) hits);
  Task_pool.shutdown pool

let test_parallel_for_empty () =
  let pool = Task_pool.create 1 in
  let ran = ref false in
  Task_pool.parallel_for pool ~lo:5 ~hi:5 ~chunk:10 (fun _ _ -> ran := true);
  Alcotest.(check bool) "no chunk for empty range" false !ran;
  Alcotest.check_raises "zero chunk rejected"
    (Invalid_argument "Task_pool.parallel_for: chunk must be positive") (fun () ->
      Task_pool.parallel_for pool ~lo:0 ~hi:10 ~chunk:0 (fun _ _ -> ()));
  Task_pool.shutdown pool

let test_shutdown_idempotent () =
  let pool = Task_pool.create 2 in
  Task_pool.shutdown pool;
  Task_pool.shutdown pool

let test_auto_chunk () =
  (* without ?chunk the chunk size derives from the range and pool size:
     several tasks per domain, at least 1, capped at chunk_max *)
  let pool = Task_pool.create 4 in
  Alcotest.(check int) "small range still fans out" 7
    (Task_pool.auto_chunk pool ~lo:0 ~hi:100 ~max:20_000);
  Alcotest.(check int) "huge range capped at max" 20_000
    (Task_pool.auto_chunk pool ~lo:0 ~hi:10_000_000 ~max:20_000);
  Alcotest.(check int) "tiny range keeps chunk >= 1" 1
    (Task_pool.auto_chunk pool ~lo:0 ~hi:3 ~max:20_000);
  (* derived chunking covers every index exactly once *)
  let hits = Array.make 1_000 0 in
  Task_pool.parallel_for pool ~lo:0 ~hi:1_000 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index exactly once" true (Array.for_all (( = ) 1) hits);
  Task_pool.shutdown pool

let test_reentrant_nesting () =
  (* a task of the pool may itself run parallel work on the same pool:
     the nested batch runs inline on its domain, no deadlock even when
     every outer task nests (which would starve a blocking design) *)
  let pool = Task_pool.create 3 in
  let acc = Array.make (8 * 100) 0 in
  Task_pool.run_list pool
    (List.init 8 (fun outer () ->
         Task_pool.parallel_for pool ~lo:0 ~hi:100 ~chunk:9 (fun lo hi ->
             for i = lo to hi - 1 do
               acc.((outer * 100) + i) <- acc.((outer * 100) + i) + 1
             done)));
  Alcotest.(check bool) "all nested work done exactly once" true (Array.for_all (( = ) 1) acc);
  (* nested errors propagate out through the outer batch *)
  (try
     Task_pool.run_list pool
       [ (fun () -> Task_pool.run_list pool [ (fun () -> raise Boom) ]) ];
     Alcotest.fail "expected exception"
   with Boom -> ());
  Task_pool.shutdown pool

let test_batch_overlap () =
  (* two batches in flight on one pool: each wait drains only its own *)
  let pool = Task_pool.create 2 in
  let a = Atomic.make 0 and b = Atomic.make 0 in
  let ba = Task_pool.new_batch () and bb = Task_pool.new_batch () in
  for _ = 1 to 20 do
    Task_pool.submit pool ba (fun () -> Atomic.incr a);
    Task_pool.submit pool bb (fun () -> Atomic.incr b)
  done;
  Task_pool.wait pool ba;
  Alcotest.(check int) "batch a complete" 20 (Atomic.get a);
  Task_pool.wait pool bb;
  Alcotest.(check int) "batch b complete" 20 (Atomic.get b);
  (* a batch is reusable for further rounds, and carries errors per-round *)
  Task_pool.submit pool ba (fun () -> raise Boom);
  (try
     Task_pool.wait pool ba;
     Alcotest.fail "expected exception"
   with Boom -> ());
  Task_pool.submit pool ba (fun () -> Atomic.incr a);
  Task_pool.wait pool ba;
  Alcotest.(check int) "batch reusable after error" 21 (Atomic.get a);
  Task_pool.shutdown pool

let test_build_cache_concurrent () =
  (* hammer one Build_cache from every domain: each key must be built
     exactly once and every requester must observe the built value *)
  let module Build_cache = Holistic_window.Build_cache in
  let module Sort_spec = Holistic_storage.Sort_spec in
  let pool = Task_pool.create 4 in
  let counters = Build_cache.fresh_counters () in
  let cache = Build_cache.create ~counters () in
  let keys =
    Array.init 8 (fun i ->
        [ Sort_spec.asc (Holistic_storage.Expr.Col (Printf.sprintf "c%d" i)) ])
  in
  let builds = Atomic.make 0 in
  (* Alcotest is not domain-safe: tasks only record what they saw, the
     assertions run on this domain once [run_list] has joined *)
  let seen = Array.make 64 (-1) in
  Task_pool.run_list pool
    (List.init 64 (fun i () ->
         let order = keys.(i mod 8) in
         let got =
           Build_cache.encode cache ~order (fun () ->
               Atomic.incr builds;
               (* a slow build widens the race window *)
               ignore (Sys.opaque_identity (Array.init 2_000 (fun j -> j * j)));
               Holistic_core.Rank_encode.of_ints (Array.make (1 + (i mod 8)) 0))
         in
         seen.(i) <- Array.length got.Holistic_core.Rank_encode.permutation));
  (* the structure's size identifies which key it was built for *)
  Array.iteri
    (fun i len ->
      Alcotest.(check int) "every requester sees the key's structure" (1 + (i mod 8)) len)
    seen;
  Alcotest.(check int) "each key built exactly once" 8 (Atomic.get builds);
  Alcotest.(check int) "encode counter agrees" 8 (Build_cache.encode_build_count counters);
  Task_pool.shutdown pool

let test_task_size_constant () =
  (* The paper's §5.5 task granularity is load-bearing for the experiments;
     changing it invalidates EXPERIMENTS.md. *)
  Alcotest.(check int) "20000-tuple morsels" 20_000 Task_pool.default_task_size

let () =
  Alcotest.run "parallel"
    [
      ( "task_pool",
        [
          Alcotest.test_case "run_list inline" `Quick test_run_list_results;
          Alcotest.test_case "run_list multi-domain" `Quick test_run_list_multi_domain;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "exception propagation (inline pool)" `Quick test_exception_inline;
          Alcotest.test_case "first exception only" `Quick test_exception_first_only;
          Alcotest.test_case "parallel_for exception" `Quick test_parallel_for_exception;
          Alcotest.test_case "stats consistent across errors" `Quick
            test_exception_stats_consistent;
          Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_coverage;
          Alcotest.test_case "parallel_for edge cases" `Quick test_parallel_for_empty;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "auto chunk derivation" `Quick test_auto_chunk;
          Alcotest.test_case "reentrant nesting" `Quick test_reentrant_nesting;
          Alcotest.test_case "overlapping batches" `Quick test_batch_overlap;
          Alcotest.test_case "build cache concurrent population" `Quick
            test_build_cache_concurrent;
          Alcotest.test_case "default task size" `Quick test_task_size_constant;
        ] );
    ]
