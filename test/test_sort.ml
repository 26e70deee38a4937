module Introsort = Holistic_sort.Introsort
module Multiway = Holistic_sort.Multiway
module Parallel_sort = Holistic_sort.Parallel_sort
module Task_pool = Holistic_parallel.Task_pool
module Rng = Holistic_util.Rng

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let test_sort_basic () =
  let a = [| 5; 1; 4; 1; 5; 9; 2; 6 |] in
  let expect = sorted_copy a in
  Introsort.sort a;
  Alcotest.(check (array int)) "sorted" expect a

let test_sort_edges () =
  let empty = [||] in
  Introsort.sort empty;
  Alcotest.(check (array int)) "empty" [||] empty;
  let one = [| 42 |] in
  Introsort.sort one;
  Alcotest.(check (array int)) "singleton" [| 42 |] one;
  let eq = Array.make 1000 7 in
  Introsort.sort eq;
  Alcotest.(check bool) "all equal" true (Array.for_all (( = ) 7) eq)

let test_sort_adversarial_duplicates () =
  (* §5.3: heavy duplication (mostly zeros) must not blow the stack or go
     quadratic — 3-way partitioning handles it. *)
  let rng = Rng.create 3 in
  let n = 200_000 in
  let a = Array.init n (fun _ -> if Rng.int rng 100 = 0 then Rng.int rng 5 else 0) in
  let expect = sorted_copy a in
  let t0 = Unix.gettimeofday () in
  Introsort.sort a;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check (array int)) "sorted" expect a;
  Alcotest.(check bool) "not quadratic" true (dt < 5.0)

let test_sort_range () =
  let a = [| 9; 8; 7; 6; 5; 4 |] in
  Introsort.sort_range a ~lo:1 ~hi:4;
  Alcotest.(check (array int)) "segment only" [| 9; 6; 7; 8; 5; 4 |] a

let sort_oracle =
  QCheck.Test.make ~name:"introsort matches List.sort" ~count:300
    QCheck.(list int)
    (fun l ->
      let a = Array.of_list l in
      Introsort.sort a;
      Array.to_list a = List.sort compare l)

let pair_sort_stability =
  QCheck.Test.make ~name:"pair sort = stable sort by key" ~count:300
    QCheck.(list (int_bound 20))
    (fun l ->
      let key = Array.of_list l in
      let payload = Array.init (Array.length key) (fun i -> i) in
      Introsort.sort_pairs ~key ~payload;
      (* expected: stable sort of (value, original index) *)
      let expect =
        List.sort compare (List.mapi (fun i v -> (v, i)) l)
      in
      List.combine (Array.to_list key) (Array.to_list payload)
      = List.map (fun (v, i) -> (v, i)) expect)

(* ------------------------------------------------------------------ *)
(* Typed pair kernels: List.sort parity on adversarial shapes, and no  *)
(* allocation                                                          *)
(* ------------------------------------------------------------------ *)

let kernel_sizes = [ 0; 1; 2; 5; 24; 25; 100; 1000; 10_000 ]

let int_shapes rng n =
  [
    ("random", Array.init n (fun _ -> Rng.int rng 1_000_000));
    ("duplicate-heavy", Array.init n (fun _ -> Rng.int rng 3));
    ("all equal", Array.make n 7);
    ("sorted", Array.init n (fun i -> i / 2));
    ("reversed", Array.init n (fun i -> n - i));
    ("organ pipe", Array.init n (fun i -> if i < n / 2 then i else n - i));
    ("extremes", Array.init n (fun i -> match i mod 3 with 0 -> min_int | 1 -> max_int | _ -> 0));
  ]

let float_shapes rng n =
  let special = [| Float.nan; 0.0; -0.0; 1.5; -1.5; infinity; neg_infinity; -.Float.nan |] in
  [
    ("random", Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0));
    ("specials", Array.init n (fun _ -> special.(Rng.int rng (Array.length special))));
    ("signed zeros", Array.init n (fun i -> if i land 1 = 0 then 0.0 else -0.0));
    ("sorted", Array.init n (fun i -> float_of_int (i / 3)));
    ("reversed with NaN", Array.init n (fun i -> if i mod 7 = 0 then Float.nan else float_of_int (n - i)));
  ]

(* payloads: a shuffled permutation, so key ties are broken by values
   unrelated to position *)
let shuffled_ids rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let pairs_oracle cmp key payload =
  List.sort cmp (List.combine (Array.to_list key) (Array.to_list payload))

let test_sort_pairs_kernel () =
  let rng = Rng.create 11 in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, key) ->
          let payload = shuffled_ids rng n in
          let expect =
            pairs_oracle
              (fun (k1, p1) (k2, p2) ->
                let c = Int.compare k1 k2 in
                if c <> 0 then c else Int.compare p1 p2)
              key payload
          in
          Introsort.sort_pairs ~key ~payload;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s, n=%d" shape n)
            expect
            (List.combine (Array.to_list key) (Array.to_list payload)))
        (int_shapes rng n))
    kernel_sizes

let test_sort_float_pairs_kernel () =
  let rng = Rng.create 12 in
  (* keys compared by bits: NaN and the sign of zero must travel with
     their payload *)
  let bits (k, p) = (Int64.bits_of_float k, p) in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, key) ->
          let payload = shuffled_ids rng n in
          let expect =
            pairs_oracle
              (fun (k1, p1) (k2, p2) ->
                let c = Float.compare k1 k2 in
                if c <> 0 then c else Int.compare p1 p2)
              key payload
          in
          Introsort.sort_float_pairs ~key ~payload;
          Alcotest.(check (list (pair int64 int)))
            (Printf.sprintf "%s, n=%d" shape n)
            (List.map bits expect)
            (List.map bits (List.combine (Array.to_list key) (Array.to_list payload))))
        (float_shapes rng n))
    kernel_sizes

let test_sort_pairs_tie_range_kernel () =
  let rng = Rng.create 13 in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, key) ->
          let payload = shuffled_ids rng n in
          (* a second key word per row id, ending in the row id itself *)
          let deep = Array.init n (fun _ -> Rng.int rng 4) in
          let tie a b =
            let c = Int.compare deep.(a) deep.(b) in
            if c <> 0 then c else Int.compare a b
          in
          let lo = n / 5 and hi = n - (n / 7) in
          let sub a = Array.sub a lo (hi - lo) in
          let expect =
            pairs_oracle
              (fun (k1, p1) (k2, p2) ->
                let c = Int.compare k1 k2 in
                if c <> 0 then c else tie p1 p2)
              (sub key) (sub payload)
          in
          let key0 = Array.copy key and payload0 = Array.copy payload in
          Introsort.sort_pairs_tie_range ~key ~payload ~tie ~lo ~hi;
          let name = Printf.sprintf "%s, n=%d" shape n in
          Alcotest.(check (list (pair int int)))
            name expect
            (List.combine (Array.to_list (sub key)) (Array.to_list (sub payload)));
          let outside a = Array.to_list (Array.sub a 0 lo) @ Array.to_list (Array.sub a hi (n - hi)) in
          Alcotest.(check (list int)) (name ^ ": keys outside the range") (outside key0) (outside key);
          Alcotest.(check (list int))
            (name ^ ": payloads outside the range")
            (outside payload0) (outside payload))
        (int_shapes rng n))
    kernel_sizes

(* Minor-heap words allocated while [f] runs.  [f] itself is allocated by
   the caller, before the first reading. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_pair_kernels_allocate_nothing () =
  let rng = Rng.create 14 in
  let n = 10_000 in
  let key = Array.init n (fun _ -> Rng.int rng 100) and payload = shuffled_ids rng n in
  let words = minor_words_during (fun () -> Introsort.sort_pairs ~key ~payload) in
  Alcotest.(check (float 0.)) "sort_pairs" 0. words;
  let fkey = Array.init n (fun i -> if i mod 11 = 0 then Float.nan else Rng.float rng 10.0) in
  let payload = shuffled_ids rng n in
  let words = minor_words_during (fun () -> Introsort.sort_float_pairs ~key:fkey ~payload) in
  Alcotest.(check (float 0.)) "sort_float_pairs" 0. words

let test_sort_indices_stable () =
  let keys = [| 3; 1; 3; 1; 3 |] in
  let idx = Introsort.sort_indices_by 5 ~cmp:(fun i j -> compare keys.(i) keys.(j)) in
  Alcotest.(check (array int)) "stable ties" [| 1; 3; 0; 2; 4 |] idx

let test_sort_by_comparator () =
  let a = [| 1; 2; 3; 4; 5 |] in
  Introsort.sort_by a ~cmp:(fun x y -> compare y x);
  Alcotest.(check (array int)) "descending" [| 5; 4; 3; 2; 1 |] a

let test_multiway_merge () =
  let src = [| 1; 4; 9; 2; 2; 7; 0; 5 |] in
  let runs = [| { Multiway.lo = 0; hi = 3 }; { Multiway.lo = 3; hi = 6 }; { Multiway.lo = 6; hi = 8 } |] in
  let dst = Array.make 8 (-1) in
  Multiway.merge ~src ~runs ~dst ~dst_pos:0;
  Alcotest.(check (array int)) "merged" [| 0; 1; 2; 2; 4; 5; 7; 9 |] dst

let merge_oracle =
  QCheck.Test.make ~name:"k-way merge matches sort" ~count:300
    QCheck.(pair (list (int_bound 50)) (int_range 1 6))
    (fun (l, k) ->
      let parts = List.init k (fun _ -> ref []) in
      List.iteri (fun i v -> let r = List.nth parts (i mod k) in r := v :: !r) l;
      let sorted_parts = List.map (fun r -> List.sort compare !r) parts in
      let src = Array.of_list (List.concat sorted_parts) in
      let runs = Array.make k { Multiway.lo = 0; hi = 0 } in
      let pos = ref 0 in
      List.iteri
        (fun i p ->
          runs.(i) <- { Multiway.lo = !pos; hi = !pos + List.length p };
          pos := !pos + List.length p)
        sorted_parts;
      let dst = Array.make (Array.length src) 0 in
      Multiway.merge ~src ~runs ~dst ~dst_pos:0;
      Array.to_list dst = List.sort compare l)

let split_at_rank_oracle =
  QCheck.Test.make ~name:"split_at_rank prefixes are a stable-merge prefix" ~count:300
    QCheck.(pair (list (int_bound 10)) (int_range 1 4))
    (fun (l, k) ->
      let n = List.length l in
      let parts = List.init k (fun _ -> ref []) in
      List.iteri (fun i v -> let r = List.nth parts (i mod k) in r := v :: !r) l;
      let sorted_parts = List.map (fun r -> List.sort compare !r) parts in
      let src = Array.of_list (List.concat sorted_parts) in
      let runs = Array.make k { Multiway.lo = 0; hi = 0 } in
      let pos = ref 0 in
      List.iteri
        (fun i p ->
          runs.(i) <- { Multiway.lo = !pos; hi = !pos + List.length p };
          pos := !pos + List.length p)
        sorted_parts;
      QCheck.assume (n >= 0);
      List.for_all
        (fun rank ->
          let cuts = Multiway.split_at_rank ~src ~runs ~rank in
          let taken = ref 0 in
          let ok_bounds = ref true in
          Array.iteri
            (fun i cut ->
              taken := !taken + (cut - runs.(i).Multiway.lo);
              if cut < runs.(i).Multiway.lo || cut > runs.(i).Multiway.hi then ok_bounds := false)
            cuts;
          (* every prefix element must be <= every suffix element *)
          let prefix_max = ref min_int and suffix_min = ref max_int in
          Array.iteri
            (fun i cut ->
              for p = runs.(i).Multiway.lo to cut - 1 do
                if src.(p) > !prefix_max then prefix_max := src.(p)
              done;
              for p = cut to runs.(i).Multiway.hi - 1 do
                if src.(p) < !suffix_min then suffix_min := src.(p)
              done)
            cuts;
          !ok_bounds && !taken = rank && (!prefix_max = min_int || !suffix_min = max_int || !prefix_max <= !suffix_min))
        [ 0; n / 3; n / 2; n ])

let test_split_at_rank_negative () =
  (* the value-domain binary search must converge on negative keys: a
     midpoint rounded toward zero equals [hi] on [-3, -2] and never
     shrinks the interval *)
  let src = [| -3; -2; min_int; max_int |] in
  let runs = [| { Multiway.lo = 0; hi = 1 }; { Multiway.lo = 1; hi = 2 } |] in
  Alcotest.(check (array int)) "rank 1 of [-3] [-2]" [| 1; 1 |] (Multiway.split_at_rank ~src ~runs ~rank:1);
  let runs = [| { Multiway.lo = 2; hi = 3 }; { Multiway.lo = 0; hi = 2 }; { Multiway.lo = 3; hi = 4 } |] in
  Alcotest.(check (array int))
    "rank 2 over the full int range" [| 3; 1; 3 |]
    (Multiway.split_at_rank ~src ~runs ~rank:2)

let parallel_sort_oracle =
  QCheck.Test.make ~name:"parallel pair sort matches stable sort" ~count:100
    QCheck.(list (int_bound 30))
    (fun l ->
      let pool = Task_pool.create 1 in
      let key = Array.of_list l in
      let payload = Array.init (Array.length key) (fun i -> i) in
      (* tiny task size exercises the multi-run merge path *)
      let runs = Parallel_sort.sort_runs pool ~task_size:3 ~key ~payload () in
      Parallel_sort.merge_runs pool ~key ~payload ~runs;
      Task_pool.shutdown pool;
      let expect = List.sort compare (List.mapi (fun i v -> (v, i)) l) in
      List.combine (Array.to_list key) (Array.to_list payload) = expect)

let test_parallel_sort_large () =
  let pool = Task_pool.create 2 in
  let rng = Rng.create 4 in
  let n = 100_000 in
  let key = Array.init n (fun _ -> Rng.int rng 1000) in
  let expect = sorted_copy key in
  let payload = Array.init n (fun i -> i) in
  Parallel_sort.sort_pairs pool ~key ~payload;
  Alcotest.(check bool) "keys sorted" true (key = expect);
  (* payload permutation must be consistent: payload.(i) indexes an original
     element with the sorted key *)
  let orig = Array.make n 0 in
  Array.iteri (fun i p -> orig.(i) <- p) payload;
  Alcotest.(check bool) "payload is a permutation" true
    (Array.to_list (sorted_copy orig) = List.init n (fun i -> i));
  Task_pool.shutdown pool

let () =
  Alcotest.run "sort"
    [
      ( "introsort",
        [
          Alcotest.test_case "basic" `Quick test_sort_basic;
          Alcotest.test_case "edges" `Quick test_sort_edges;
          Alcotest.test_case "adversarial duplicates" `Slow test_sort_adversarial_duplicates;
          Alcotest.test_case "range" `Quick test_sort_range;
          Alcotest.test_case "stable index sort" `Quick test_sort_indices_stable;
          Alcotest.test_case "comparator sort" `Quick test_sort_by_comparator;
          QCheck_alcotest.to_alcotest sort_oracle;
          QCheck_alcotest.to_alcotest pair_sort_stability;
          Alcotest.test_case "sort_pairs = List.sort" `Quick test_sort_pairs_kernel;
          Alcotest.test_case "sort_float_pairs = List.sort" `Quick test_sort_float_pairs_kernel;
          Alcotest.test_case "sort_pairs_tie_range = List.sort" `Quick test_sort_pairs_tie_range_kernel;
          Alcotest.test_case "pair kernels allocate nothing" `Quick test_pair_kernels_allocate_nothing;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "merge" `Quick test_multiway_merge;
          QCheck_alcotest.to_alcotest merge_oracle;
          QCheck_alcotest.to_alcotest split_at_rank_oracle;
          Alcotest.test_case "split_at_rank on negative keys" `Quick test_split_at_rank_negative;
        ] );
      ( "parallel_sort",
        [
          QCheck_alcotest.to_alcotest parallel_sort_oracle;
          Alcotest.test_case "large" `Quick test_parallel_sort_large;
        ] );
    ]
