module Mst = Holistic_core.Mst
module Prev = Holistic_core.Prev_occurrence
module Ann = Holistic_core.Annotated_mst
module Rank_encode = Holistic_core.Rank_encode
module Range_tree = Holistic_core.Range_tree
module Rng = Holistic_util.Rng
module IS = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Brute-force oracles                                                 *)
(* ------------------------------------------------------------------ *)

let brute_count a lo hi t =
  let acc = ref 0 in
  for i = max lo 0 to min hi (Array.length a) - 1 do
    if a.(i) < t then incr acc
  done;
  !acc

let in_ranges ranges v = Array.exists (fun (l, h) -> v >= l && v < h) ranges

let brute_select a ranges nth =
  let m = ref nth and res = ref None in
  Array.iter
    (fun v -> if !res = None && in_ranges ranges v then if !m = 0 then res := Some v else decr m)
    a;
  !res

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* array of small ints plus tree parameters, covering ragged trees, all
   fanouts and disabled cascading *)
let tree_case =
  QCheck.make
    ~print:(fun (a, f, k) ->
      Printf.sprintf "n=%d f=%d k=%d [%s]" (Array.length a) f k
        (String.concat ";" (Array.to_list (Array.map string_of_int a))))
    QCheck.Gen.(
      let* n = int_bound 250 in
      let* maxv = int_range 1 40 in
      let* a = array_size (return n) (int_bound maxv) in
      let* f = oneofl [ 2; 3; 4; 8; 16; 32; 64 ] in
      let* k = oneofl [ 0; 1; 2; 4; 8; 32; 100 ] in
      return (a, f, k))

let count_matches_oracle =
  QCheck.Test.make ~name:"Mst.count matches linear scan" ~count:300 tree_case (fun (a, f, k) ->
      let n = Array.length a in
      let t = Mst.create ~fanout:f ~sample:k a in
      let rng = Rng.create (n + f + k) in
      let ok = ref true in
      for _ = 1 to 30 do
        let lo = Rng.int rng (n + 2) - 1 and hi = Rng.int rng (n + 2) - 1 in
        let th = Rng.int rng 44 - 2 in
        if Mst.count t ~lo ~hi ~less_than:th <> brute_count a lo hi th then ok := false
      done;
      !ok)

let select_matches_oracle =
  QCheck.Test.make ~name:"Mst.select matches linear scan" ~count:300 tree_case (fun (a, f, k) ->
      let n = Array.length a in
      QCheck.assume (n > 0);
      let t = Mst.create ~fanout:f ~sample:k a in
      let rng = Rng.create (n + (3 * f) + k) in
      let ok = ref true in
      for _ = 1 to 20 do
        let l1 = Rng.int rng 40 in
        let h1 = l1 + Rng.int rng 20 in
        let l2 = h1 + Rng.int rng 5 in
        let h2 = l2 + Rng.int rng 20 in
        let l3 = h2 + Rng.int rng 5 in
        let h3 = l3 + Rng.int rng 10 in
        let ranges =
          match Rng.int rng 3 with
          | 0 -> [| (l1, h1) |]
          | 1 -> [| (l1, h1); (l2, h2) |]
          | _ -> [| (l1, h1); (l2, h2); (l3, h3) |]
        in
        let total = Mst.count_value_ranges t ~ranges in
        let brute_total = Array.fold_left (fun acc v -> if in_ranges ranges v then acc + 1 else acc) 0 a in
        if total <> brute_total then ok := false
        else if total > 0 then begin
          let nth = Rng.int rng total in
          match brute_select a ranges nth with
          | Some expect when Mst.select t ~ranges ~nth = expect -> ()
          | _ -> ok := false
        end
      done;
      !ok)

let test_select_out_of_bounds () =
  let t = Mst.create [| 1; 2; 3 |] in
  Alcotest.check_raises "nth too large"
    (Invalid_argument "Mst.select: nth=3 out of bounds (3 qualifying)") (fun () ->
      ignore (Mst.select t ~ranges:[| (0, 10) |] ~nth:3))

let test_empty_and_singleton () =
  let empty = Mst.create [||] in
  Alcotest.(check int) "count on empty" 0 (Mst.count empty ~lo:0 ~hi:10 ~less_than:5);
  let one = Mst.create [| 7 |] in
  Alcotest.(check int) "count singleton hit" 1 (Mst.count one ~lo:0 ~hi:1 ~less_than:8);
  Alcotest.(check int) "count singleton miss" 0 (Mst.count one ~lo:0 ~hi:1 ~less_than:7);
  Alcotest.(check int) "select singleton" 7 (Mst.select one ~ranges:[| (7, 8) |] ~nth:0)

let test_negative_values () =
  let a = [| min_int; -5; 0; 5; max_int |] in
  let t = Mst.create ~fanout:2 ~sample:1 a in
  Alcotest.(check int) "count over extremes" 2 (Mst.count t ~lo:0 ~hi:5 ~less_than:0);
  Alcotest.(check int) "select min_int" min_int
    (Mst.select t ~ranges:[| (min_int, 0) |] ~nth:0)

let test_stats_and_formula () =
  let n = 1000 in
  let a = Array.init n (fun i -> i * 7 mod 100) in
  let t = Mst.create ~fanout:4 ~sample:4 a in
  let s = Mst.stats t in
  (* 4^5 = 1024 >= 1000: levels 0..5 *)
  Alcotest.(check int) "level elements" (6 * n) s.Mst.level_elements;
  Alcotest.(check bool) "cursor elements positive" true (s.Mst.cursor_elements > 0);
  Alcotest.(check int) "bytes" (8 * (s.Mst.level_elements + s.Mst.cursor_elements)) s.Mst.heap_bytes;
  let f = Mst.element_count_formula ~n:1000 ~fanout:4 ~sample:4 in
  Alcotest.(check int) "formula levels + cursors" ((6 * 1000) + (5 * 1000)) f

let test_payload_requires_flag () =
  let t = Mst.create [| 1; 2 |] in
  Alcotest.check_raises "payload_levels without flag"
    (Invalid_argument "Mst.payload_levels: tree was built without ~track_payload") (fun () ->
      ignore (Mst.payload_levels t))

let test_bad_params () =
  Alcotest.check_raises "fanout < 2" (Invalid_argument "Mst.create: fanout must be >= 2")
    (fun () -> ignore (Mst.create ~fanout:1 [| 1 |]));
  Alcotest.check_raises "negative sample" (Invalid_argument "Mst.create: sample must be >= 0")
    (fun () -> ignore (Mst.create ~sample:(-1) [| 1 |]))

let test_multi_domain_build () =
  (* run-level build tasks are independent: a 3-domain pool must produce a
     bit-identical tree *)
  let module Tp = Holistic_parallel.Task_pool in
  let a = Array.init 50_000 (fun i -> (i * 7919) mod 1234) in
  let p1 = Tp.create 1 and p3 = Tp.create 3 in
  let t1 = Mst.create ~pool:p1 ~fanout:4 ~sample:4 a in
  let t3 = Mst.create ~pool:p3 ~fanout:4 ~sample:4 a in
  Tp.shutdown p1;
  Tp.shutdown p3;
  let i1 = Mst.internals t1 and i3 = Mst.internals t3 in
  Alcotest.(check bool) "levels identical" true (i1.Mst.int_levels = i3.Mst.int_levels);
  Alcotest.(check bool) "cursors identical" true (i1.Mst.int_cursors = i3.Mst.int_cursors)

(* ------------------------------------------------------------------ *)
(* 32-bit compact trees (§5.1)                                         *)
(* ------------------------------------------------------------------ *)

module Compact = Holistic_core.Mst_compact

let compact_agrees =
  QCheck.Test.make ~name:"32-bit tree answers every query like the 64-bit one" ~count:150
    tree_case
    (fun (a, f, k) ->
      let n = Array.length a in
      let t = Mst.create ~fanout:f ~sample:k a in
      let c = Compact.of_mst t in
      let rng = Rng.create (n + f + (13 * k)) in
      let ok = ref (Compact.length c = n) in
      for _ = 1 to 25 do
        let lo = Rng.int rng (n + 2) - 1 and hi = Rng.int rng (n + 2) - 1 in
        let th = Rng.int rng 44 - 2 in
        if Compact.count c ~lo ~hi ~less_than:th <> Mst.count t ~lo ~hi ~less_than:th then
          ok := false;
        let ranges = [| (0, max 1 (th + 2)) |] in
        let total = Mst.count_value_ranges t ~ranges in
        if Compact.count_value_ranges c ~ranges <> total then ok := false;
        if total > 0 then begin
          let nth = Rng.int rng total in
          if Compact.select c ~ranges ~nth <> Mst.select t ~ranges ~nth then ok := false
        end
      done;
      !ok)

let test_compact_memory () =
  let a = Array.init 5_000 (fun i -> i * 13 mod 700) in
  let t = Mst.create a in
  let c = Compact.of_mst t in
  let full = (Mst.stats t).Mst.heap_bytes in
  Alcotest.(check int) "exactly half the footprint" full (2 * Compact.heap_bytes c)

let test_compact_range_check () =
  let t = Mst.create [| max_int |] in
  Alcotest.check_raises "values too wide"
    (Invalid_argument "Mst_compact.of_mst: value exceeds 32-bit range") (fun () ->
      ignore (Compact.of_mst t))

(* ------------------------------------------------------------------ *)
(* Prev occurrence (Algorithm 1)                                       *)
(* ------------------------------------------------------------------ *)

let prev_occurrence_oracle =
  QCheck.Test.make ~name:"prev-occurrence encoding matches scan" ~count:300
    QCheck.(array (int_bound 10))
    (fun a ->
      let prev = Prev.compute a in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          let expect =
            let r = ref 0 in
            for j = 0 to i - 1 do
              if a.(j) = a.(i) then r := j + 1
            done;
            !r
          in
          if p <> expect then ok := false)
        prev;
      !ok)

let distinct_frame_identity =
  QCheck.Test.make ~name:"distinct count = qualifying back-references" ~count:200
    QCheck.(pair (array_of_size QCheck.Gen.(int_range 1 120) (int_bound 8)) (pair small_nat small_nat))
    (fun (a, (x, y)) ->
      let n = Array.length a in
      let lo = x mod n and hi = y mod n in
      let lo, hi = (min lo hi, max lo hi) in
      let prev = Prev.compute a in
      let expect =
        let s = ref IS.empty in
        for i = lo to hi do
          s := IS.add a.(i) !s
        done;
        IS.cardinal !s
      in
      Prev.distinct_in_frame prev ~lo ~hi = expect
      && Mst.count (Mst.create prev) ~lo ~hi:(hi + 1) ~less_than:(lo + 1) = expect)

(* ------------------------------------------------------------------ *)
(* Annotated trees (§4.3)                                              *)
(* ------------------------------------------------------------------ *)

let annotated_sum_oracle =
  QCheck.Test.make ~name:"annotated tree computes SUM DISTINCT" ~count:200 tree_case
    (fun (a, f, k) ->
      let n = Array.length a in
      QCheck.assume (n > 0);
      let prev = Prev.compute a in
      let values = Array.map (fun v -> float_of_int (v * 3)) a in
      let ann = Ann.Float_sum.create ~fanout:f ~sample:k ~keys:prev ~values () in
      let rng = Rng.create (n + f) in
      let ok = ref true in
      for _ = 1 to 20 do
        let lo = Rng.int rng n in
        let hi = lo + 1 + Rng.int rng (n - lo) in
        let expect =
          let s = ref IS.empty in
          for i = lo to hi - 1 do
            s := IS.add a.(i) !s
          done;
          IS.fold (fun v acc -> acc +. float_of_int (v * 3)) !s 0.0
        in
        if abs_float (Ann.Float_sum.query ann ~lo ~hi ~less_than:(lo + 1) -. expect) > 1e-9 then
          ok := false
      done;
      !ok)

(* generic monoid instance: max of a custom record, checking that no inverse
   is needed and combine order doesn't matter *)
module Max_monoid = struct
  type t = int option

  let identity = None

  let combine a b =
    match a, b with
    | None, x | x, None -> x
    | Some x, Some y -> Some (max x y)
end

module Max_tree = Ann.Make (Max_monoid)

let annotated_generic_monoid =
  QCheck.Test.make ~name:"annotated tree over a user-defined monoid" ~count:100
    QCheck.(array_of_size QCheck.Gen.(int_range 1 80) (int_bound 6))
    (fun a ->
      let n = Array.length a in
      let prev = Prev.compute a in
      let tree = Max_tree.create ~fanout:3 ~sample:2 ~keys:prev ~value:(fun i -> Some a.(i)) () in
      let ok = ref true in
      for lo = 0 to n - 1 do
        let hi = n in
        let expect = Array.fold_left (fun acc i -> max acc i) min_int (Array.sub a lo (hi - lo)) in
        (* max over distinct values = max over values *)
        match Max_tree.query tree ~lo ~hi ~less_than:(lo + 1) with
        | Some m when m = expect -> ()
        | _ -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Rank encoding (Fig. 8)                                              *)
(* ------------------------------------------------------------------ *)

let rank_encode_oracle =
  QCheck.Test.make ~name:"rank codes are dense, ties shared; row codes unique" ~count:300
    QCheck.(array (int_bound 10))
    (fun a ->
      let n = Array.length a in
      let enc = Rank_encode.of_ints a in
      let enc2 = Rank_encode.of_cmp n ~cmp:(fun i j -> compare a.(i) a.(j)) in
      (* distinct values below [a.(i)] = the index of [a.(i)] among the
         sorted distinct values (a lower-bound search) *)
      let distinct = Array.of_list (List.sort_uniq compare (Array.to_list a)) in
      let groups_below i =
        let lo = ref 0 and hi = ref (Array.length distinct) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if distinct.(mid) < a.(i) then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      enc.Rank_encode.rank_codes = enc2.Rank_encode.rank_codes
      && enc.Rank_encode.row_codes = enc2.Rank_encode.row_codes
      && enc.Rank_encode.permutation = enc2.Rank_encode.permutation
      && Array.for_all (fun i -> enc.Rank_encode.rank_codes.(i) = groups_below i)
           (Array.init n (fun i -> i))
      && List.sort compare (Array.to_list enc.Rank_encode.row_codes) = List.init n (fun i -> i)
      && Array.for_all
           (fun r -> enc.Rank_encode.row_codes.(enc.Rank_encode.permutation.(r)) = r)
           (Array.init n (fun r -> r)))

let float_encode_oracle =
  QCheck.Test.make ~name:"float fast path matches comparator encoding" ~count:300
    QCheck.(pair (array (int_bound 12)) bool)
    (fun (ints, desc) ->
      let a = Array.map (fun v -> float_of_int v /. 4.0) ints in
      let n = Array.length a in
      let fast = Rank_encode.of_floats ~desc a in
      let sign = if desc then -1 else 1 in
      let slow = Rank_encode.of_cmp n ~cmp:(fun i j -> sign * Float.compare a.(i) a.(j)) in
      fast.Rank_encode.rank_codes = slow.Rank_encode.rank_codes
      && fast.Rank_encode.row_codes = slow.Rank_encode.row_codes
      && fast.Rank_encode.permutation = slow.Rank_encode.permutation)

let test_rank_encode_stability () =
  let a = [| 5; 5; 5 |] in
  let enc = Rank_encode.of_ints a in
  Alcotest.(check (array int)) "ties share rank code" [| 0; 0; 0 |] enc.Rank_encode.rank_codes;
  Alcotest.(check (array int)) "row codes break ties by position" [| 0; 1; 2 |]
    enc.Rank_encode.row_codes

(* ------------------------------------------------------------------ *)
(* Range tree / dense rank (§4.4)                                      *)
(* ------------------------------------------------------------------ *)

let range_tree_oracle =
  QCheck.Test.make ~name:"range tree counts distinct keys below threshold" ~count:150 tree_case
    (fun (a, f, k) ->
      let n = Array.length a in
      QCheck.assume (n > 0);
      let rt = Range_tree.create ~fanout:f ~sample:k a in
      let rng = Rng.create (n + f + (7 * k)) in
      let ok = ref true in
      for _ = 1 to 15 do
        let lo = Rng.int rng n in
        let hi = lo + 1 + Rng.int rng (n - lo) in
        let key = Rng.int rng 44 in
        let expect =
          let s = ref IS.empty in
          for i = lo to hi - 1 do
            if a.(i) < key then s := IS.add a.(i) !s
          done;
          IS.cardinal !s
        in
        if Range_tree.distinct_below rt ~lo ~hi ~key <> expect then ok := false
      done;
      !ok)

let test_range_tree_stats () =
  let rt = Range_tree.create ~fanout:4 ~sample:4 (Array.init 100 (fun i -> i mod 7)) in
  Alcotest.(check bool) "positive memory" true (Range_tree.stats_bytes rt > 0);
  Alcotest.(check int) "length" 100 (Range_tree.length rt)

let () =
  Alcotest.run "core"
    [
      ( "mst",
        [
          QCheck_alcotest.to_alcotest count_matches_oracle;
          QCheck_alcotest.to_alcotest select_matches_oracle;
          Alcotest.test_case "select out of bounds" `Quick test_select_out_of_bounds;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "extreme values" `Quick test_negative_values;
          Alcotest.test_case "stats and memory formula" `Quick test_stats_and_formula;
          Alcotest.test_case "payload flag" `Quick test_payload_requires_flag;
          Alcotest.test_case "parameter validation" `Quick test_bad_params;
          Alcotest.test_case "multi-domain build determinism" `Quick test_multi_domain_build;
        ] );
      ( "mst_compact",
        [
          QCheck_alcotest.to_alcotest compact_agrees;
          Alcotest.test_case "half memory" `Quick test_compact_memory;
          Alcotest.test_case "range check" `Quick test_compact_range_check;
        ] );
      ( "prev_occurrence",
        [
          QCheck_alcotest.to_alcotest prev_occurrence_oracle;
          QCheck_alcotest.to_alcotest distinct_frame_identity;
        ] );
      ( "annotated",
        [
          QCheck_alcotest.to_alcotest annotated_sum_oracle;
          QCheck_alcotest.to_alcotest annotated_generic_monoid;
        ] );
      ( "rank_encode",
        [
          QCheck_alcotest.to_alcotest rank_encode_oracle;
          QCheck_alcotest.to_alcotest float_encode_oracle;
          Alcotest.test_case "tie handling" `Quick test_rank_encode_stability;
        ] );
      ( "range_tree",
        [
          QCheck_alcotest.to_alcotest range_tree_oracle;
          Alcotest.test_case "stats" `Quick test_range_tree_stats;
        ] );
    ]
