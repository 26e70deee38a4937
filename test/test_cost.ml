(* The cost-based evaluator choice: model shape (monotonicity, the decision
   floor, legacy defaults), crossover direction checked against measured
   wall time at two sizes, forced-choice parity across frame kinds and
   exclusions through [Executor.run ?evaluator], the strict rejection of
   unsupported (function, backend) pairs, and the HOLIWIN_EVALUATOR env
   override. *)

open Holistic_storage
open Holistic_window
module Wf = Window_func
module Ws = Window_spec
module Ec = Evaluator_choice
module Cost = Cost_model
module Rng = Holistic_util.Rng
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool

let inputs ?(rows = 10_000) ?(nparts = 1) ?(frame_rows = 100.0) ?(monotonic = true)
    ?(holed = false) ?(cls = Ec.C_rank) () =
  {
    Cost.rows;
    nparts;
    frame_rows;
    monotonic;
    holed;
    cls;
    task_size = Task_pool.default_task_size;
    fanout = 32;
  }

let c = Cost.default

(* ------------------------------------------------------------------ *)
(* Model shape                                                         *)
(* ------------------------------------------------------------------ *)

let test_monotonic () =
  let classes = [ Ec.C_plain_agg; Ec.C_distinct_count; Ec.C_rank; Ec.C_select; Ec.C_mode ] in
  List.iter
    (fun cls ->
      List.iter
        (fun nm ->
          if Ec.supports nm cls ~holed:false then begin
            (* non-decreasing in partition rows at fixed frame *)
            List.iter
              (fun (r0, r1) ->
                let a = Cost.cost c (inputs ~rows:r0 ~cls ()) nm in
                let b = Cost.cost c (inputs ~rows:r1 ~cls ()) nm in
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s rows %d->%d" (Ec.class_to_string cls) (Ec.to_string nm)
                     r0 r1)
                  true (a <= b))
              [ (1_000, 4_000); (4_000, 64_000); (64_000, 1_000_000) ];
            (* non-decreasing in frame extent at fixed rows *)
            List.iter
              (fun (w0, w1) ->
                let a = Cost.cost c (inputs ~frame_rows:w0 ~cls ()) nm in
                let b = Cost.cost c (inputs ~frame_rows:w1 ~cls ()) nm in
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s frame %.0f->%.0f" (Ec.class_to_string cls)
                     (Ec.to_string nm) w0 w1)
                  true (a <= b))
              [ (2.0, 64.0); (64.0, 1_000.0); (1_000.0, 5_000.0) ]
          end)
        Ec.all)
    classes

let test_floor_and_default () =
  (* tiny input: a naive rank scan is predicted cheaper than MST, but the
     saving is microseconds — the floor keeps the legacy default *)
  let small = Cost.choose c (inputs ~rows:100 ~frame_rows:2.0 ()) in
  Alcotest.(check bool) "small input keeps default" true (small.Cost.chosen = small.Cost.default);
  Alcotest.(check bool) "rank default is mst" true (small.Cost.default = Ec.Mst);
  (* same shape, two hundred thousand rows: the saving dwarfs the floor *)
  let big = Cost.choose c (inputs ~rows:200_000 ~nparts:8 ~frame_rows:2.0 ()) in
  Alcotest.(check bool) "large input switches" true (big.Cost.chosen <> big.Cost.default);
  Alcotest.(check bool) "tiny frames go naive" true (big.Cost.chosen = Ec.Naive);
  (* every candidate got a score, including the default and the winner *)
  Alcotest.(check bool) "scores cover chosen+default" true
    (List.mem_assoc big.Cost.chosen big.Cost.scores
    && List.mem_assoc big.Cost.default big.Cost.scores);
  (* legacy defaults *)
  Alcotest.(check bool) "plain agg default" true
    (Cost.legacy_default Ec.C_plain_agg ~holed:false = Ec.Segment_tree);
  Alcotest.(check bool) "mode default" true
    (Cost.legacy_default Ec.C_mode ~holed:false = Ec.Incremental);
  Alcotest.(check bool) "holed mode default" true
    (Cost.legacy_default Ec.C_mode ~holed:true = Ec.Naive);
  Alcotest.(check bool) "rank default" true (Cost.legacy_default Ec.C_rank ~holed:false = Ec.Mst)

let test_estimate_frame () =
  let back n = Ws.rows_between (Ws.preceding n) Ws.Current_row in
  let w, mono = Cost.estimate_frame (Ws.over ~frame:(back 99) ()) ~rows:10_000 in
  Alcotest.(check (float 0.0)) "constant ROWS offsets are exact" 100.0 w;
  Alcotest.(check bool) "constant offsets are monotonic" true mono;
  let w, mono = Cost.estimate_frame (Ws.over ()) ~rows:10_000 in
  Alcotest.(check (float 0.0)) "default frame averages n/2" 5_000.0 w;
  Alcotest.(check bool) "default frame is monotonic" true mono;
  let data_dep = Ws.rows_between (Ws.Preceding (Expr.Col "g")) Ws.Current_row in
  let _, mono = Cost.estimate_frame (Ws.over ~frame:data_dep ()) ~rows:10_000 in
  Alcotest.(check bool) "data-dependent offsets lose monotonicity" false mono

(* ------------------------------------------------------------------ *)
(* Crossover direction vs measured wall time                           *)
(* ------------------------------------------------------------------ *)

let make_table rng n =
  let ts = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = ts.(i) in
    ts.(i) <- ts.(j);
    ts.(j) <- t
  done;
  Table.create [ ("ts", Column.ints ts) ]

let seconds f =
  Gc.compact ();
  let t0 = Obs.now_ns () in
  let _ = f () in
  float_of_int (Obs.now_ns () - t0) *. 1e-9

(* Pairs of runs, each from a compacted heap, until one side has won 5
   — the majority of 9 pairs: the pairs [f] won, the pairs run, and each
   side's best time.  Pairs alternate which side runs first, so an order
   effect falls on both sides.  The host's speed drifts between runs by
   more than the smaller gaps measured here, so neither one run nor the
   best of several decides reliably; a pair's two runs see the same
   stretch of the host, and the majority of pairs decides.  [g] may win
   up to 4 of the 9 pairs. *)
let pairs_won f g =
  let won = ref 0 and lost = ref 0 and bf = ref infinity and bg = ref infinity in
  while !won < 5 && !lost < 5 do
    let tf, tg =
      if (!won + !lost) land 1 = 0 then
        let tf = seconds f in
        (tf, seconds g)
      else
        let tg = seconds g in
        (seconds f, tg)
    in
    if tf < tg then incr won else incr lost;
    bf := Float.min !bf tf;
    bg := Float.min !bg tg
  done;
  (!won, !won + !lost, !bf, !bg)

(* At each size: a 2-row frame must favour naive, the default (growing,
   ~n/2) frame must favour MST — both in the model's predictions and in
   measured runs.  The growing-frame gap is large (MST's O(log n) probes
   against naive's O(frame) scans), but on the 2-row frame the two
   backends are within a small factor: naive's per-row work is tiny,
   while MST pays its build and a short descent per row, and both share
   the sort and rank encoding that dominate the query.  The measured leg
   therefore runs the backends in pairs and needs the predicted one to
   win 5 of at most 9. *)
let test_crossover () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun n ->
          let rng = Rng.create (17 * n) in
          let table = make_table rng n in
          let tiny = Ws.over ~order_by:[ Sort_spec.asc (Expr.Col "ts") ]
              ~frame:(Ws.rows_between (Ws.preceding 1) Ws.Current_row) ()
          in
          let growing = Ws.over ~order_by:[ Sort_spec.asc (Expr.Col "ts") ] () in
          let run over ev = Executor.run ~pool ~evaluator:ev table ~over [ Wf.rank ~name:"r" [] ] in
          List.iter
            (fun (label, over, fast, slow) ->
              let frame_rows, monotonic = Cost.estimate_frame over ~rows:n in
              let i = inputs ~rows:n ~frame_rows ~monotonic () in
              Alcotest.(check bool)
                (Printf.sprintf "n=%d %s: model prefers %s" n label (Ec.to_string fast))
                true
                (Cost.cost c i fast < Cost.cost c i slow);
              ignore (run over fast) (* warm both paths before timing *);
              ignore (run over slow);
              let won, pairs, t_fast, t_slow =
                pairs_won (fun () -> run over fast) (fun () -> run over slow)
              in
              Alcotest.(check bool)
                (Printf.sprintf
                   "n=%d %s: measured %s faster than %s in %d of %d pairs (best %.4fs vs %.4fs)"
                   n label (Ec.to_string fast) (Ec.to_string slow) won pairs t_fast t_slow)
                true (won = 5))
            [
              ("2-row frame", tiny, Ec.Naive, Ec.Mst);
              ("growing frame", growing, Ec.Mst, Ec.Naive);
            ])
        [ 8_000; 16_000 ])

(* ------------------------------------------------------------------ *)
(* Forced-choice parity across frame kinds and exclusions              *)
(* ------------------------------------------------------------------ *)

let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> compare a b = 0

(* Dyadic float values keep SUM/AVG exact under any summation order, so
   backend parity can demand bit identity. *)
let parity_table rng n =
  let ints lo hi = Array.init n (fun _ -> Rng.int_in rng lo hi) in
  Table.create
    [
      ("g", Column.ints (ints 0 2));
      ("k", Column.ints (ints (-4) 9));
      ("f", Column.floats (Array.init n (fun _ -> float_of_int (Rng.int_in rng (-6) 8) /. 2.0)));
    ]

let parity_items () =
  [
    Wf.count ~distinct:true ~name:"dc" (Expr.Col "k");
    Wf.sum ~distinct:true ~name:"ds" (Expr.Col "f");
    Wf.sum ~name:"s" (Expr.Col "f");
    Wf.median ~name:"med" (Expr.Col "f");
    Wf.rank ~name:"r" [];
    Wf.dense_rank ~name:"d" [];
    Wf.mode ~name:"mo" (Expr.Col "k");
  ]

let test_forced_parity () =
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 90125 in
      let table = parity_table rng 257 in
      let frames =
        [
          ("rows", Some (Ws.rows_between (Ws.preceding 3) (Ws.following 1)));
          ("groups", Some (Ws.groups_between (Ws.preceding 1) Ws.Current_row));
          ( "range",
            Some (Ws.range_between (Ws.Preceding (Expr.Const (Value.Int 2))) Ws.Current_row) );
          ( "excl-current",
            Some
              (Ws.rows_between ~exclusion:Ws.Exclude_current_row (Ws.preceding 4)
                 (Ws.following 2)) );
          ( "excl-ties",
            Some (Ws.groups_between ~exclusion:Ws.Exclude_ties (Ws.preceding 2) (Ws.following 1))
          );
          ("default", None);
        ]
      in
      List.iter
        (fun (fname, frame) ->
          let over =
            Ws.over
              ~partition_by:[ Expr.Col "g" ]
              ~order_by:[ Sort_spec.asc (Expr.Col "k") ]
              ?frame ()
          in
          let holed =
            match frame with
            | Some f -> f.Ws.exclusion <> Ws.Exclude_no_others
            | None -> false
          in
          let baseline = Executor.run ~pool table ~over (parity_items ()) in
          List.iter
            (fun ev ->
              let items =
                List.filter
                  (fun it -> Ec.supports ev (Ec.classify it) ~holed)
                  (parity_items ())
              in
              if items <> [] then begin
                let out = Executor.run ~pool ~evaluator:ev table ~over items in
                List.iter
                  (fun (it : Wf.t) ->
                    let b = Table.column baseline it.Wf.name in
                    let o = Table.column out it.Wf.name in
                    for r = 0 to Table.nrows table - 1 do
                      let vb = Column.get b r and vo = Column.get o r in
                      if not (value_identical vb vo) then
                        Alcotest.failf "frame %s backend %s item %s row %d: %s vs %s" fname
                          (Ec.to_string ev) it.Wf.name r (Value.to_string vb)
                          (Value.to_string vo)
                    done)
                  items
              end)
            Ec.all)
        frames)

(* ------------------------------------------------------------------ *)
(* Strict rejection and the env override                               *)
(* ------------------------------------------------------------------ *)

let check_invalid_arg ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" substring
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" msg substring)
        true
        (let n = String.length msg and m = String.length substring in
         let rec go i = i + m <= n && (String.sub msg i m = substring || go (i + 1)) in
         m = 0 || go 0)

let test_rejections () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 5 in
      let table = parity_table rng 40 in
      let over = Ws.over ~order_by:[ Sort_spec.asc (Expr.Col "k") ] () in
      (* a segment tree cannot evaluate rank: strict knob, clear message *)
      check_invalid_arg ~substring:"does not support rank" (fun () ->
          Executor.run ~pool ~evaluator:Ec.Segment_tree table ~over [ Wf.rank ~name:"r" [] ]);
      (* incremental backends cannot cross exclusion holes *)
      let holed =
        Ws.over
          ~order_by:[ Sort_spec.asc (Expr.Col "k") ]
          ~frame:(Ws.rows_between ~exclusion:Ws.Exclude_current_row (Ws.preceding 3) Ws.Current_row)
          ()
      in
      check_invalid_arg ~substring:"exclusion holes" (fun () ->
          Executor.run ~pool ~evaluator:Ec.Incremental table ~over:holed
            [ Wf.count ~distinct:true ~name:"dc" (Expr.Col "k") ]);
      (* ...but the same pair without holes runs fine *)
      ignore
        (Executor.run ~pool ~evaluator:Ec.Incremental table ~over
           [ Wf.count ~distinct:true ~name:"dc" (Expr.Col "k") ]))

let with_env value f =
  let old = Sys.getenv_opt "HOLIWIN_EVALUATOR" in
  Unix.putenv "HOLIWIN_EVALUATOR" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "HOLIWIN_EVALUATOR" (Option.value ~default:"" old)) f

let counter trace name = Option.value ~default:0 (List.assoc_opt name trace.Obs.counters)

let test_env_override () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let rng = Rng.create 6 in
      let table = parity_table rng 60 in
      let over = Ws.over ~order_by:[ Sort_spec.asc (Expr.Col "k") ] () in
      let items = [ Wf.sum ~name:"s" (Expr.Col "f"); Wf.rank ~name:"r" [] ] in
      (* the ISSUE's underscore spelling must parse *)
      with_env "segment_tree" (fun () ->
          let _, trace = Obs.with_capture (fun () -> Executor.run ~pool table ~over items) in
          (* SUM is forced onto the segment tree; rank is ineligible for it,
             so the cost model picks (and at 60 rows the floor keeps MST) *)
          Alcotest.(check int) "sum forced to segment tree" 1
            (counter trace "plan.evaluator.segment-tree");
          Alcotest.(check int) "rank left to the cost model" 1 (counter trace "plan.evaluator.mst"));
      with_env "bogus" (fun () ->
          check_invalid_arg ~substring:"unknown HOLIWIN_EVALUATOR" (fun () ->
              Executor.run ~pool table ~over items));
      (* empty value = unset *)
      with_env "" (fun () -> ignore (Executor.run ~pool table ~over items)))

let test_name_round_trip () =
  List.iter
    (fun nm ->
      Alcotest.(check bool)
        (Ec.to_string nm ^ " round-trips")
        true
        (Ec.of_string (Ec.to_string nm) = Some nm
        && Ec.of_algorithm (Ec.to_algorithm nm) = Some nm))
    Ec.all;
  Alcotest.(check bool) "underscores accepted" true (Ec.of_string "mst_no_cascade" = Some Ec.Mst_no_cascade);
  Alcotest.(check bool) "ost alias" true (Ec.of_string "order-statistic" = Some Ec.Order_statistic);
  Alcotest.(check bool) "auto is not a backend" true (Ec.of_algorithm Wf.Auto = None)

(* A cached structure's build cost is sunk (a session kept it across
   queries): with a data-dependent frame (incremental drivers priced out)
   at n = 262144 / frame 1200, a naive scan beats building an MST — the
   gap is ~40 ms, far past the floor — but an already-built MST's probes
   alone beat the scan. The same inputs flip. *)
let test_sunk_flip () =
  let i = inputs ~rows:262_144 ~frame_rows:1_200.0 ~monotonic:false () in
  let cold = Cost.choose c i in
  Alcotest.(check bool) "cold pick is naive" true (cold.Cost.chosen = Ec.Naive);
  let warm = Cost.choose ~sunk:[ Ec.Mst ] c i in
  Alcotest.(check bool) "sunk mst wins" true (warm.Cost.chosen = Ec.Mst);
  Alcotest.(check bool) "sunk drops the build term" true
    (Cost.cost ~sunk:[ Ec.Mst ] c i Ec.Mst < Cost.cost c i Ec.Mst);
  Alcotest.(check (float 1e-6)) "non-sunk backends unchanged"
    (Cost.cost c i Ec.Naive)
    (Cost.cost ~sunk:[ Ec.Mst ] c i Ec.Naive)

let () =
  Alcotest.run "cost"
    [
      ( "model",
        [
          Alcotest.test_case "cost is monotone in rows and frame" `Quick test_monotonic;
          Alcotest.test_case "decision floor and legacy defaults" `Quick test_floor_and_default;
          Alcotest.test_case "frame-shape estimation" `Quick test_estimate_frame;
          Alcotest.test_case "sunk build cost flips the choice" `Quick test_sunk_flip;
          Alcotest.test_case "names round-trip" `Quick test_name_round_trip;
        ] );
      ( "crossover",
        [ Alcotest.test_case "model direction matches wall time" `Slow test_crossover ] );
      ( "parity",
        [
          Alcotest.test_case "forced backends agree across frames" `Quick test_forced_parity;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "unsupported pairs rejected" `Quick test_rejections;
          Alcotest.test_case "HOLIWIN_EVALUATOR override" `Quick test_env_override;
        ] );
    ]
