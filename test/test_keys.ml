(* Parity suite for the sort-key compiler and the OVC sort path:
   [Key_codec.compile] + [Parallel_sort.sort_encoded] must reproduce the
   exact permutation of the stable comparator sort
   ([Introsort.sort_indices_by ~cmp:(Sort_spec.comparator …)], partition ids
   prepended) for every spec — NULLs, nan/-0./infinities, DESC, strings,
   multi-key, expression keys, sentinel-colliding extremes. *)

open Holistic_storage
module Bitset = Holistic_util.Bitset
module Rng = Holistic_util.Rng
module Task_pool = Holistic_parallel.Task_pool
module Introsort = Holistic_sort.Introsort
module Parallel_sort = Holistic_sort.Parallel_sort
module Multiway = Holistic_sort.Multiway
module Window_plan = Holistic_window.Window_plan
module Window_spec = Holistic_window.Window_spec

(* ------------------------------------------------------------------ *)
(* Random tables and specs                                             *)
(* ------------------------------------------------------------------ *)

let special_floats =
  [| Float.nan; neg_infinity; infinity; -0.; 0.; 1.5; -1.5; 1e300; -1e300; 0.1 |]

let extreme_ints = [| min_int; max_int; min_int + 1; max_int - 1; 0 |]
let string_pool = [| ""; "a"; "ab"; "abc"; "b"; "ba"; "zz"; "z" |]

let null_mask rng n density =
  if density = 0 then None
  else begin
    let b = Bitset.create n in
    for i = 0 to n - 1 do
      if Rng.int rng density = 0 then Bitset.set b i
    done;
    Some b
  end

let mk_table rng n =
  let col ?nulls data = Column.make ?nulls data in
  Table.create
    [
      (* small-range ints: exercises greedy word packing *)
      ( "i",
        col
          ?nulls:(null_mask rng n 4)
          (Column.Ints (Array.init n (fun _ -> Rng.int_in rng (-4) 4))) );
      (* full-range ints incl. min_int/max_int: unpackable words, NULL
         sentinel collisions, coarsening *)
      ( "j",
        col
          ?nulls:(null_mask rng n 5)
          (Column.Ints
             (Array.init n (fun _ ->
                  if Rng.int rng 3 = 0 then extreme_ints.(Rng.int rng (Array.length extreme_ints))
                  else Rng.int_in rng (-1_000_000) 1_000_000))) );
      (* floats incl. nan/-0./infinities: sign-magnitude scode, hi+lo words *)
      ( "f",
        col
          ?nulls:(null_mask rng n 4)
          (Column.Floats
             (Array.init n (fun _ ->
                  if Rng.int rng 3 = 0 then special_floats.(Rng.int rng (Array.length special_floats))
                  else Rng.float rng 100. -. 50.))) );
      (* strings: densified-rank words *)
      ( "s",
        col
          ?nulls:(null_mask rng n 5)
          (Column.Strings (Array.init n (fun _ -> string_pool.(Rng.int rng (Array.length string_pool)))))
      );
      ("b", col ?nulls:(null_mask rng n 6) (Column.Bools (Array.init n (fun _ -> Rng.bool rng))));
      ("d", col (Column.Dates (Array.init n (fun _ -> Rng.int rng 50))));
      (* NULL-free ints and floats (NaN, -0./0., infinities included): the
         engine comparator's raw-array keys *)
      ( "ni",
        col
          (Column.Ints
             (Array.init n (fun _ ->
                  if Rng.int rng 3 = 0 then extreme_ints.(Rng.int rng (Array.length extreme_ints))
                  else Rng.int_in rng (-20) 20))) );
      ( "nf",
        col
          (Column.Floats
             (Array.init n (fun _ ->
                  if Rng.int rng 2 = 0 then special_floats.(Rng.int rng (Array.length special_floats))
                  else float_of_int (Rng.int_in rng (-4) 4)))) );
    ]

let key_exprs =
  [|
    Expr.Col "i";
    Expr.Col "j";
    Expr.Col "f";
    Expr.Col "s";
    Expr.Col "b";
    Expr.Col "d";
    Expr.Col "ni";
    Expr.Col "nf";
    (* expression keys: compiled through [Expr.compile], not the column
       fast paths *)
    Expr.Add (Expr.Col "i", Expr.Const (Value.Int 2));
    Expr.Mul (Expr.Col "i", Expr.Col "i");
    (* int + float widening: the float-image encoding *)
    Expr.Add (Expr.Col "i", Expr.Col "f");
    (* mixed Int/String values: inexpressible, must fall to the residual *)
    Expr.Case
      ( [ (Expr.Ge (Expr.Col "i", Expr.Const (Value.Int 0)), Expr.Col "i") ],
        Some (Expr.Col "s") );
  |]

let random_key rng =
  let e = key_exprs.(Rng.int rng (Array.length key_exprs)) in
  let nulls =
    match Rng.int rng 3 with
    | 0 -> Sort_spec.Nulls_default
    | 1 -> Sort_spec.Nulls_first
    | _ -> Sort_spec.Nulls_last
  in
  if Rng.bool rng then Sort_spec.asc ~nulls e else Sort_spec.desc ~nulls e

let random_spec rng = List.init (1 + Rng.int rng 3) (fun _ -> random_key rng)

(* ------------------------------------------------------------------ *)
(* The reference order: stable comparator sort                         *)
(* ------------------------------------------------------------------ *)

let expected_perm ?pids table spec =
  let cmp_spec = Sort_spec.comparator table spec in
  let cmp =
    match pids with
    | None -> cmp_spec
    | Some p ->
        fun i j ->
          let c = Int.compare p.(i) p.(j) in
          if c <> 0 then c else cmp_spec i j
  in
  Introsort.sort_indices_by (Table.nrows table) ~cmp

(* The engine comparator ([Sort_spec.fast_comparator]) must give
   [Sort_spec.comparator]'s sign on every pair — checked on the neighbours
   of the reference order (where ties live) and on random pairs — and
   must compare raw arrays exactly for plain NULL-free Int/Date/Float
   columns: NULL-bearing, string, bool and expression keys take the boxed
   path. *)
let check_fast_comparator table spec ~perm label =
  List.iter
    (fun key ->
      let plain =
        match key.Sort_spec.expr with
        | Expr.Col name -> begin
            let c = Table.column table name in
            Column.null_mask c = None
            &&
            match Column.data c with
            | Column.Ints _ | Column.Dates _ | Column.Floats _ -> true
            | Column.Strings _ | Column.Bools _ -> false
          end
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s takes the %s path" label (Sort_spec.key_to_string key)
           (if plain then "raw-array" else "boxed"))
        plain
        (Option.is_some (Sort_spec.plain_key_comparator table key)))
    spec;
  let n = Table.nrows table in
  let fast = Sort_spec.fast_comparator table spec and slow = Sort_spec.comparator table spec in
  let check i j =
    let sign c = Int.compare c 0 in
    if sign (fast i j) <> sign (slow i j) then
      Alcotest.failf "%s: fast_comparator sign differs on rows %d, %d (%d vs %d)" label i j
        (fast i j) (slow i j)
  in
  for k = 1 to n - 1 do
    check perm.(k - 1) perm.(k);
    check perm.(k) perm.(k - 1)
  done;
  let rng = Rng.create n in
  for _ = 1 to 4 * n do
    check (Rng.int rng n) (Rng.int rng n)
  done

let check_parity pool ~task_size ?pids table spec label =
  let n = Table.nrows table in
  let kc = Key_codec.compile ?pids table spec in
  let perm, key0 =
    Parallel_sort.sort_encoded pool ~task_size ~n ~words:kc.Key_codec.words
      ?tie:kc.Key_codec.residual ()
  in
  let expect = expected_perm ?pids table spec in
  Alcotest.(check (array int)) (label ^ ": encoded sort = stable comparator sort") expect perm;
  if Array.length kc.Key_codec.words > 0 then
    for k = 0 to n - 1 do
      if key0.(k) <> kc.Key_codec.words.(0).(perm.(k)) then
        Alcotest.failf "%s: sorted key0 mismatch at %d" label k
    done;
  (* the compiled comparator must induce the same total order *)
  let perm' = Introsort.sort_indices_by n ~cmp:(Key_codec.comparator kc) in
  Alcotest.(check (array int)) (label ^ ": Key_codec.comparator parity") expect perm';
  check_fast_comparator table spec ~perm:expect label

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_randomized () =
  let rng = Rng.create 0xC0DEC in
  let pool = Task_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      for iter = 0 to 119 do
        let n = 1 + Rng.int rng 400 in
        let table = mk_table rng n in
        let spec = random_spec rng in
        let pids =
          if Rng.bool rng then Some (Array.init n (fun _ -> Rng.int rng 6)) else None
        in
        (* tiny task size: forces many runs, multisequence selection and
           the OVC loser-tree merge even on small tables *)
        let task_size = 16 + Rng.int rng 64 in
        check_parity pool ~task_size ?pids table spec (Printf.sprintf "iter %d" iter)
      done)

let test_single_key_dimensions () =
  let rng = Rng.create 42 in
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 777 in
      let table = mk_table rng n in
      List.iter
        (fun c ->
          List.iter
            (fun (dir_label, mk) ->
              List.iter
                (fun nulls ->
                  let spec = [ mk ~nulls (Expr.Col c) ] in
                  check_parity pool ~task_size:32 table spec
                    (Printf.sprintf "col %s %s" c dir_label))
                [ Sort_spec.Nulls_default; Sort_spec.Nulls_first; Sort_spec.Nulls_last ])
            [
              ("asc", fun ~nulls e -> Sort_spec.asc ~nulls e);
              ("desc", fun ~nulls e -> Sort_spec.desc ~nulls e);
            ])
        [ "i"; "j"; "f"; "s"; "b"; "d"; "ni"; "nf" ])

let test_stability () =
  (* heavy duplication: every row of a 4-value key column ties massively;
     the encoded sort must keep ascending row ids within ties, exactly like
     the stable reference *)
  let pool = Task_pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 7 in
      let n = 5_000 in
      let table =
        Table.create [ ("k", Column.ints (Array.init n (fun _ -> Rng.int rng 4))) ]
      in
      let spec = [ Sort_spec.asc (Expr.Col "k") ] in
      check_parity pool ~task_size:64 table spec "dup-heavy";
      check_parity pool ~task_size:64 table [ Sort_spec.desc (Expr.Col "k") ] "dup-heavy desc")

let test_edges () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let empty = Table.create [ ("a", Column.ints [||]) ] in
      check_parity pool ~task_size:16 empty [ Sort_spec.asc (Expr.Col "a") ] "n=0";
      let one = Table.create [ ("a", Column.ints [| 9 |]) ] in
      check_parity pool ~task_size:16 one [ Sort_spec.desc (Expr.Col "a") ] "n=1";
      (* empty spec: no words, no residual — identity permutation *)
      let t = Table.create [ ("a", Column.ints [| 3; 1; 2 |]) ] in
      let kc = Key_codec.compile t [] in
      let perm, _ =
        Parallel_sort.sort_encoded pool ~n:3 ~words:kc.Key_codec.words
          ?tie:kc.Key_codec.residual ()
      in
      Alcotest.(check (array int)) "empty spec is identity" [| 0; 1; 2 |] perm)

let test_ovc_merge_stress () =
  (* multi-word keys over many runs: exercises the loser tree's offset-value
     codes; the stats witness that most comparisons were OVC-decided *)
  let rng = Rng.create 99 in
  let pool = Task_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 30_000 in
      (* full-range int keys are unpackable (span overflows), so each takes
         its own word: a duplicate-heavy leading word plus two full-range
         words guarantees the multiword OVC merge actually runs *)
      let full_range () = Rng.int_in rng (-(max_int / 2)) (max_int / 2) in
      let table =
        Table.create
          [
            ("g", Column.ints (Array.init n (fun _ -> Rng.int rng 3)));
            ("j1", Column.ints (Array.init n (fun _ -> full_range ())));
            ("j2", Column.ints (Array.init n (fun _ -> full_range ())));
          ]
      in
      let spec =
        [ Sort_spec.asc (Expr.Col "g"); Sort_spec.desc (Expr.Col "j1"); Sort_spec.asc (Expr.Col "j2") ]
      in
      let kc = Key_codec.compile table spec in
      Alcotest.(check bool) "spec spans multiple words" true
        (Array.length kc.Key_codec.words > 1);
      Multiway.reset_ovc_stats ();
      check_parity pool ~task_size:512 table spec "ovc stress";
      let decided, scanned = Multiway.ovc_stats () in
      Alcotest.(check bool) "ovc decided some comparisons" true (decided > 0);
      Alcotest.(check bool)
        (Printf.sprintf "ovc decided (%d) dominates deep scans (%d)" decided scanned)
        true
        (decided > scanned))

let test_window_boundaries () =
  (* boundaries derived from the sorted leading word must split the
     permutation into maximal equal-partition segments *)
  let rng = Rng.create 11 in
  let n = 2_000 in
  let table = mk_table rng n in
  let over =
    Window_spec.over ~partition_by:[ Expr.Col "d" ]
      ~order_by:[ Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ]
      ()
  in
  let perm, boundaries = Window_plan.order_permutation table ~over in
  let nb = Array.length boundaries in
  Alcotest.(check int) "boundaries start" 0 boundaries.(0);
  Alcotest.(check int) "boundaries end" n boundaries.(nb - 1);
  let part = Expr.compile table (Expr.Col "d") in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace distinct (part i) ()) perm;
  Alcotest.(check int) "one segment per distinct partition value"
    (Hashtbl.length distinct) (nb - 1);
  for s = 0 to nb - 2 do
    let v = part perm.(boundaries.(s)) in
    for k = boundaries.(s) + 1 to boundaries.(s + 1) - 1 do
      if not (Value.equal v (part perm.(k))) then Alcotest.failf "segment %d not constant" s
    done;
    if s > 0 && Value.equal v (part perm.(boundaries.(s) - 1)) then
      Alcotest.failf "boundary %d splits equal partition values" s
  done;
  (* within each partition the inherited order must match the comparator *)
  let cmp = Sort_spec.comparator table [ Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ] in
  for s = 0 to nb - 2 do
    for k = boundaries.(s) + 1 to boundaries.(s + 1) - 1 do
      let c = cmp perm.(k - 1) perm.(k) in
      if c > 0 || (c = 0 && perm.(k - 1) > perm.(k)) then
        Alcotest.failf "partition %d unsorted at offset %d" s k
    done
  done

let test_fast_key_nulls_spelling () =
  (* satellite fix: on NULL-free columns every nulls_order spelling is
     equivalent, so explicit NULLS LAST on ASC (and any other spelling)
     must still take the fast paths *)
  let t =
    Table.create [ ("a", Column.ints [| 3; 1; 2 |]); ("f", Column.floats [| 1.; 3.; 2. |]) ]
  in
  List.iter
    (fun nulls ->
      Alcotest.(check bool) "single_int_key any nulls spelling" true
        (Sort_spec.single_int_key t [ Sort_spec.asc ~nulls (Expr.Col "a") ] <> None);
      Alcotest.(check bool) "fast_key int any nulls spelling" true
        (Sort_spec.fast_key t [ Sort_spec.desc ~nulls (Expr.Col "a") ] <> None);
      Alcotest.(check bool) "fast_key float any nulls spelling" true
        (Sort_spec.fast_key t [ Sort_spec.asc ~nulls (Expr.Col "f") ] <> None))
    [ Sort_spec.Nulls_default; Sort_spec.Nulls_first; Sort_spec.Nulls_last ];
  (* NULL-bearing columns must still never match *)
  let mask = Bitset.create 3 in
  Bitset.set mask 1;
  let tn = Table.create [ ("a", Column.make ~nulls:mask (Column.Ints [| 3; 1; 2 |])) ] in
  Alcotest.(check bool) "nullable column rejected" true
    (Sort_spec.single_int_key tn [ Sort_spec.asc (Expr.Col "a") ] = None)

let test_codec_shape () =
  (* a partitioned (int, float DESC, string) spec must compile fully into
     words: no residual, pid divisor present *)
  let rng = Rng.create 5 in
  let n = 1_000 in
  let table = mk_table rng n in
  let pids = Array.init n (fun _ -> Rng.int rng 7) in
  let spec =
    [ Sort_spec.asc (Expr.Col "d"); Sort_spec.desc (Expr.Col "f"); Sort_spec.asc (Expr.Col "s") ]
  in
  let kc = Key_codec.compile ~pids table spec in
  Alcotest.(check int) "all keys covered" kc.Key_codec.total kc.Key_codec.covered;
  Alcotest.(check bool) "no residual" true (kc.Key_codec.residual = None);
  Alcotest.(check bool) "pid divisor present" true (kc.Key_codec.pid_divisor <> None);
  Alcotest.(check bool) "words nonempty" true (Array.length kc.Key_codec.words > 0);
  (* intervals / mixed-type keys cannot be expressed: residual takes over *)
  let mixed =
    [ Sort_spec.asc
        (Expr.Case
           ( [ (Expr.Ge (Expr.Col "i", Expr.Const (Value.Int 0)), Expr.Col "i") ],
             Some (Expr.Col "s") )) ]
  in
  let kc' = Key_codec.compile table mixed in
  Alcotest.(check bool) "mixed-type key leaves a residual" true (kc'.Key_codec.residual <> None)

let () =
  Alcotest.run "keys"
    [
      ( "parity",
        [
          Alcotest.test_case "randomized specs/tables/pids" `Quick test_randomized;
          Alcotest.test_case "single-key dimension sweep" `Quick test_single_key_dimensions;
          Alcotest.test_case "stability under heavy ties" `Quick test_stability;
          Alcotest.test_case "edge sizes and empty spec" `Quick test_edges;
        ] );
      ( "ovc",
        [ Alcotest.test_case "multi-run multi-word merge stress" `Quick test_ovc_merge_stress ] );
      ( "plan",
        [ Alcotest.test_case "boundaries from sorted word0" `Quick test_window_boundaries ] );
      ( "spec",
        [
          Alcotest.test_case "fast-path nulls spellings" `Quick test_fast_key_nulls_spelling;
          Alcotest.test_case "codec coverage shape" `Quick test_codec_shape;
        ] );
    ]
