(* Tests for the observability layer: Obs spans/counters, pool worker
   statistics, and golden EXPLAIN ANALYZE output (wall times masked). *)

open Holistic_storage
module Obs = Holistic_obs.Obs
module Task_pool = Holistic_parallel.Task_pool
module Sql = Holistic_sql.Sql

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Obs unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_now_ns () =
  let t1 = Obs.now_ns () in
  let t2 = Obs.now_ns () in
  Alcotest.(check bool) "monotone" true (t2 >= t1 && t1 > 0)

let test_span_nesting () =
  let v, tr =
    Obs.with_capture (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span ~args:(fun () -> [ ("k", "v") ]) "inner" (fun () -> ());
            Obs.span "inner2" (fun () -> ());
            17))
  in
  Alcotest.(check int) "result" 17 v;
  Alcotest.(check (list string)) "start order"
    [ "outer"; "inner"; "inner2" ]
    (List.map (fun (s : Obs.span) -> s.name) tr.Obs.spans);
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer is root" (-1) outer.Obs.parent;
  Alcotest.(check int) "inner under outer" outer.Obs.id inner.Obs.parent;
  Alcotest.(check (list (pair string string))) "args forced" [ ("k", "v") ] inner.Obs.args;
  Alcotest.(check bool) "durations set" true
    (List.for_all (fun (s : Obs.span) -> s.Obs.dur_ns >= 0) tr.Obs.spans)

let test_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  let forced = ref false in
  let v =
    Obs.span
      ~args:(fun () ->
        forced := true;
        [])
      "off" (fun () -> 3)
  in
  Alcotest.(check int) "value passes through" 3 v;
  Alcotest.(check bool) "args thunk never forced" false !forced;
  let tr = Obs.capture () in
  Alcotest.(check int) "no spans recorded" 0 (List.length tr.Obs.spans)

let test_exception_closes_span () =
  let (), tr =
    Obs.with_capture (fun () ->
        (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
        Obs.span "after" (fun () -> ()))
  in
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  Alcotest.(check bool) "boom recorded, closed" true ((find "boom").Obs.dur_ns >= 0);
  Alcotest.(check int) "stack not corrupted: after is a root" (-1) (find "after").Obs.parent

let test_annotate () =
  let (), tr =
    Obs.with_capture (fun () -> Obs.span "s" (fun () -> Obs.annotate [ ("note", "here") ]))
  in
  let s = List.hd tr.Obs.spans in
  Alcotest.(check bool) "annotation attached" true (List.mem_assoc "note" s.Obs.args)

let test_counters () =
  let c = Obs.Counter.make "test.gated" in
  Obs.reset ();
  Obs.disable ();
  Obs.Counter.add c 5;
  Alcotest.(check int) "gated add is a no-op when disabled" 0 (Obs.Counter.value c);
  Obs.Counter.add_always c 5;
  Alcotest.(check int) "add_always counts when disabled" 5 (Obs.Counter.value c);
  Obs.enable ();
  Obs.Counter.incr c;
  Obs.disable ();
  Alcotest.(check int) "gated add counts when enabled" 6 (Obs.Counter.value c);
  Alcotest.(check bool) "registered in snapshot" true
    (List.mem ("test.gated", 6) (Obs.Counter.snapshot ()));
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Counter.value (Obs.Counter.make "test.gated") = 6);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_with_capture_restores () =
  Obs.disable ();
  let (), _ = Obs.with_capture (fun () -> Alcotest.(check bool) "on inside" true (Obs.enabled ())) in
  Alcotest.(check bool) "off restored" false (Obs.enabled ());
  Obs.enable ();
  let (), _ = Obs.with_capture (fun () -> ()) in
  Alcotest.(check bool) "on restored" true (Obs.enabled ());
  Obs.disable ()

let test_totals () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "a" (fun () -> ());
        Obs.span "b" (fun () -> ());
        Obs.span "a" (fun () -> ()))
  in
  match Obs.totals tr with
  | [ ("a", (2, sa)); ("b", (1, sb)) ] ->
      Alcotest.(check bool) "non-negative seconds" true (sa >= 0.0 && sb >= 0.0)
  | other ->
      Alcotest.failf "unexpected totals: %s"
        (String.concat "; " (List.map (fun (n, (c, _)) -> Printf.sprintf "%s/%d" n c) other))

let test_render_aggregates () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "p" (fun () ->
            Obs.span "c" (fun () -> ());
            Obs.span "c" (fun () -> ())))
  in
  let r = Obs.render tr in
  Alcotest.(check bool) "sibling aggregation" true (contains ~sub:"c x2" r);
  Alcotest.(check bool) "times as ms" true (contains ~sub:" ms" r)

let test_chrome_json () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "alpha" (fun () -> Obs.Counter.add (Obs.Counter.make "test.chrome") 3))
  in
  let j = Obs.to_chrome_json tr in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~sub j))
    [ "\"traceEvents\""; "\"ph\":\"X\""; "\"alpha\""; "\"ph\":\"C\""; "\"test.chrome\"" ];
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist_buckets () =
  let module Hg = Obs.Histogram in
  (* values below 16 are exact: bucket = value = lower bound *)
  for v = 0 to 15 do
    Alcotest.(check int) "exact bucket" v (Hg.bucket_of_value v);
    Alcotest.(check int) "exact lower bound" v (Hg.bucket_lower_bound v)
  done;
  (* the first octave above 15 is still exact (16 sub-buckets of width 1) *)
  Alcotest.(check int) "16" 16 (Hg.bucket_of_value 16);
  Alcotest.(check int) "31" 31 (Hg.bucket_of_value 31);
  Alcotest.(check int) "lb 16" 16 (Hg.bucket_lower_bound 16);
  Alcotest.(check int) "lb 31" 31 (Hg.bucket_lower_bound 31);
  (* from 32 on, sub-buckets widen: 32 and 33 coincide, 32 and 34 differ *)
  Alcotest.(check int) "32/33 share" (Hg.bucket_of_value 32) (Hg.bucket_of_value 33);
  Alcotest.(check bool) "32/34 differ" true (Hg.bucket_of_value 32 <> Hg.bucket_of_value 34);
  (* bucket index and lower bound are monotone, lower bound never exceeds
     the value, and relative quantisation error stays below 1/16 *)
  let prev = ref (-1) in
  let v = ref 0 in
  while !v < 1 lsl 40 do
    let b = Hg.bucket_of_value !v in
    Alcotest.(check bool) "bucket in range" true (b >= 0 && b < Hg.bucket_count);
    Alcotest.(check bool) "monotone" true (b >= !prev);
    let lb = Hg.bucket_lower_bound b in
    Alcotest.(check bool) "lower bound <= v" true (lb <= !v);
    Alcotest.(check bool) "error < 1/16" true
      (float_of_int (!v - lb) < (1.0 /. 16.0) *. float_of_int (max 1 !v));
    prev := b;
    v := (!v * 17 / 16) + 1
  done;
  Alcotest.(check bool) "max_int maps" true
    (Hg.bucket_lower_bound (Hg.bucket_of_value max_int) <= max_int)

let test_hist_quantiles () =
  let h = Obs.Histogram.make "test.hist.q" in
  Obs.Histogram.reset h;
  for v = 1 to 1000 do
    Obs.Histogram.add_always h v
  done;
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "count" 1000 s.Obs.Histogram.count;
  Alcotest.(check int) "min" 1 s.Obs.Histogram.min;
  Alcotest.(check int) "max" 1000 s.Obs.Histogram.max;
  Alcotest.(check int) "sum" 500_500 s.Obs.Histogram.sum;
  let { Obs.Histogram.p50; p90; p99; _ } = s in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p90 && p90 <= p99 && p99 <= s.Obs.Histogram.max);
  (* conservative estimates: never above the true quantile, within one
     1/16-wide sub-bucket below it *)
  Alcotest.(check bool) "p50 near 500" true (p50 <= 500 && p50 > 460);
  Alcotest.(check bool) "p90 near 900" true (p90 <= 900 && p90 > 830);
  Alcotest.(check bool) "p99 near 990" true (p99 <= 990 && p99 > 920);
  let q100 = Obs.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "q=1.0 lands in the max bucket" true (q100 >= p99 && q100 <= s.Obs.Histogram.max);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset clears" 0 (Obs.Histogram.count h)

let test_hist_merge () =
  let module Hg = Obs.Histogram in
  let h1 = Hg.make "test.hist.m1"
  and h2 = Hg.make "test.hist.m2"
  and hall = Hg.make "test.hist.mall" in
  List.iter Hg.reset [ h1; h2; hall ];
  let a = [ 3; 17; 200; 5000; 0 ] and b = [ 1; 999; 12345; 17 ] in
  List.iter (fun v -> Hg.add_always h1 v; Hg.add_always hall v) a;
  List.iter (fun v -> Hg.add_always h2 v; Hg.add_always hall v) b;
  Hg.merge ~into:h1 h2;
  Alcotest.(check bool) "merge = adding everything" true (Hg.summary h1 = Hg.summary hall);
  let before = Hg.summary h1 in
  Hg.merge ~into:h1 h1;
  Alcotest.(check bool) "self-merge is a no-op" true (Hg.summary h1 = before);
  List.iter Hg.reset [ h1; h2; hall ]

let test_hist_gating () =
  let h = Obs.Histogram.make "test.hist.gate" in
  Obs.Histogram.reset h;
  Obs.disable ();
  Obs.Histogram.add h 5;
  Alcotest.(check int) "gated add is a no-op when disabled" 0 (Obs.Histogram.count h);
  Obs.Histogram.add_always h 5;
  Alcotest.(check int) "add_always records when disabled" 1 (Obs.Histogram.count h);
  Obs.enable ();
  Obs.Histogram.add h 7;
  Obs.disable ();
  Alcotest.(check int) "gated add records when enabled" 2 (Obs.Histogram.count h);
  Obs.Histogram.add_always h (-3);
  Alcotest.(check int) "negative clamps to 0" 0 (Obs.Histogram.summary h).Obs.Histogram.min;
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.hist.gate" (Obs.Histogram.snapshot ()));
  Obs.Histogram.reset_all ();
  Alcotest.(check bool) "reset_all drops it from the snapshot" false
    (List.mem_assoc "test.hist.gate" (Obs.Histogram.snapshot ()))

let test_hists_in_trace () =
  let (), tr =
    Obs.with_capture (fun () ->
        let h = Obs.Histogram.make "test.hist.trace_ns" in
        Obs.Histogram.add h 100;
        Obs.Histogram.add h 200)
  in
  (match List.assoc_opt "test.hist.trace_ns" tr.Obs.hists with
  | Some s -> Alcotest.(check int) "captured count" 2 s.Obs.Histogram.count
  | None -> Alcotest.fail "histogram missing from trace");
  let r = Obs.render tr in
  Alcotest.(check bool) "rendered" true (contains ~sub:"test.hist.trace_ns" r);
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Memory accounting: record_bytes, GC sampling, self-times            *)
(* ------------------------------------------------------------------ *)

let test_record_bytes () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "outer" (fun () ->
            Obs.record_bytes (fun () -> 123);
            Obs.span "inner" (fun () -> Obs.record_bytes (fun () -> 1000));
            Obs.record_bytes (fun () -> 77)))
  in
  let find name = List.find (fun (s : Obs.span) -> s.Obs.name = name) tr.Obs.spans in
  Alcotest.(check int) "bytes attributed to the innermost open span" 200 (find "outer").Obs.bytes;
  Alcotest.(check int) "nested span gets its own" 1000 (find "inner").Obs.bytes;
  Obs.reset ();
  Obs.disable ();
  let forced = ref false in
  Obs.record_bytes (fun () ->
      forced := true;
      1);
  Alcotest.(check bool) "thunk not forced when disabled" false !forced;
  (* outside any span, attribution silently drops *)
  Obs.enable ();
  Obs.record_bytes (fun () -> 55);
  Obs.disable ();
  Obs.reset ()

let test_gc_sampling () =
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "alloc" (fun () ->
            (* a 100k-float array: ~100_001 words, allocated directly on
               the major heap *)
            ignore (Sys.opaque_identity (Array.make 100_000 0.0))))
  in
  let s = List.hd tr.Obs.spans in
  Alcotest.(check bool) "allocated words counted" true (s.Obs.alloc_w >= 100_000);
  Alcotest.(check bool) "non-negative GC fields" true
    (s.Obs.promoted_w >= 0 && s.Obs.majors >= 0)

(* A minor collection adds its promotions to [promoted_words] at once,
   here survivors allocated before the span that holds it, while
   [major_words] catches them up only at a later major slice.  Span
   "promote" stops right after the collection, so the lag is open when
   it closes; span "catch-up" runs until the slice has closed it.  Both
   allocate only on the minor heap, so each [alloc_w] must be its body's
   minor words (plus a few words of span bookkeeping): the lag must make
   neither span negative nor charge the promotions to the later one.
   The allocator triggers the collection: an explicit [Gc.minor ()]
   brings [major_words] up to date and would hide the lag. *)
let test_gc_promotion_alloc () =
  Gc.minor ();
  (* ~60k live young words, promoted by the first span's collection *)
  let live = ref [] in
  for i = 0 to 9_999 do
    live := (i, i) :: !live
  done;
  let stat () = Gc.quick_stat () in
  let direct () =
    let g = stat () in
    g.Gc.major_words -. g.Gc.promoted_words
  in
  let d_before = direct () in
  let limit = 8 * (Gc.get ()).Gc.minor_heap_size in
  (* allocate short-lived pairs until [stop ()]; returns the minor words *)
  let churn stop =
    let m0 = Gc.minor_words () in
    while (not (stop ())) && Gc.minor_words () -. m0 < float_of_int limit do
      for i = 0 to 99 do
        ignore (Sys.opaque_identity (i, i))
      done
    done;
    int_of_float (Gc.minor_words () -. m0)
  in
  let p0 = (stat ()).Gc.promoted_words in
  let inner1 = ref 0 and inner2 = ref 0 and lag = ref 0.0 in
  let (), tr =
    Obs.with_capture (fun () ->
        Obs.span "promote" (fun () ->
            inner1 := churn (fun () -> (stat ()).Gc.promoted_words -. p0 >= 50_000.0));
        lag := d_before -. direct ();
        Obs.span "catch-up" (fun () -> inner2 := churn (fun () -> direct () >= d_before)))
  in
  ignore (Sys.opaque_identity !live);
  Alcotest.(check bool)
    (Printf.sprintf "the collection left a lag (%.0f words)" !lag)
    true (!lag >= 50_000.0);
  Alcotest.(check bool) "the later slice closed it" true (direct () >= d_before);
  List.iter
    (fun (name, inner) ->
      let s = List.find (fun s -> s.Obs.name = name) tr.Obs.spans in
      Alcotest.(check bool)
        (Printf.sprintf "%s: alloc_w %d >= the body's %d minor words" name s.Obs.alloc_w inner)
        true (s.Obs.alloc_w >= inner);
      Alcotest.(check bool)
        (Printf.sprintf "%s: alloc_w %d within 64 words of the body's %d" name s.Obs.alloc_w
           inner)
        true
        (s.Obs.alloc_w <= inner + 64))
    [ ("promote", !inner1); ("catch-up", !inner2) ]

let test_self_totals () =
  let mk id parent name dur_ns =
    {
      Obs.id;
      parent;
      name;
      tid = 0;
      t0_ns = 0;
      dur_ns;
      args = [];
      alloc_w = 0;
      promoted_w = 0;
      majors = 0;
      bytes = 0;
    }
  in
  (* root (100) > child (60) > grandchild (25); sibling child (15) *)
  let tr =
    {
      Obs.spans = [ mk 0 (-1) "root" 100; mk 1 0 "child" 60; mk 2 1 "grand" 25; mk 3 0 "child" 15 ];
      counters = [];
      hists = [];
      dropped = 0;
    }
  in
  let self = Obs.self_totals tr in
  let get name = List.assoc name self in
  Alcotest.(check int) "root self = 100 - 60 - 15" 25
    (int_of_float (snd (get "root") *. 1e9 +. 0.5));
  Alcotest.(check int) "child self = (60 - 25) + 15" 50
    (int_of_float (snd (get "child") *. 1e9 +. 0.5));
  Alcotest.(check int) "child count" 2 (fst (get "child"));
  Alcotest.(check int) "grand self = 25" 25 (int_of_float (snd (get "grand") *. 1e9 +. 0.5));
  (* a child longer than its parent (dropped spans, clock skew) clamps at 0 *)
  let tr2 =
    { Obs.spans = [ mk 0 (-1) "p" 10; mk 1 0 "c" 50 ]; counters = []; hists = []; dropped = 0 }
  in
  Alcotest.(check int) "negative self clamps to 0" 0
    (int_of_float (snd (List.assoc "p" (Obs.self_totals tr2)) *. 1e9 +. 0.5))

(* The footprint contract: [footprint_bytes] of a built structure must
   track what the heap actually holds.  Build a 64-bit MST (all-boxed
   OCaml arrays — the 32/16-bit widths keep their buffers in malloc'd
   bigarrays outside the OCaml heap) and compare against the live-word
   delta across construction. *)
let test_footprint_parity () =
  let module Mst = Holistic_core.Mst in
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let n = 50_000 in
      let keys = Array.init n (fun i -> i * 7919 mod n) in
      (* warm up any lazy one-time allocations on this path *)
      ignore (Sys.opaque_identity (Mst.create ~pool keys));
      Gc.full_major ();
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      let t = Mst.create ~pool keys in
      Gc.full_major ();
      let after = (Gc.stat ()).Gc.live_words in
      let measured = 8 * (after - before) in
      let fp = Mst.footprint_bytes t in
      Alcotest.(check bool)
        (Printf.sprintf "footprint %d B within 10%% of measured %d B" fp measured)
        true
        (float_of_int (abs (fp - measured)) <= 0.10 *. float_of_int measured);
      ignore (Sys.opaque_identity t);
      ignore (Sys.opaque_identity keys))

(* ------------------------------------------------------------------ *)
(* Task pool worker statistics                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_stats () =
  let pool = Task_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      Obs.reset ();
      Obs.disable ();
      Task_pool.run_list pool (List.init 8 (fun _ () -> ignore (Sys.opaque_identity 1)));
      let sum f = Array.fold_left (fun a st -> a + f st) 0 (Task_pool.worker_stats pool) in
      Alcotest.(check int) "no counting while disabled" 0
        (sum (fun st -> st.Task_pool.tasks));
      Obs.enable ();
      Task_pool.run_list pool (List.init 8 (fun _ () -> ignore (Sys.opaque_identity 1)));
      Task_pool.parallel_for pool ~lo:0 ~hi:40 ~chunk:10 (fun _ _ -> ());
      Obs.disable ();
      Alcotest.(check int) "tasks counted while enabled" 12 (sum (fun st -> st.Task_pool.tasks));
      Alcotest.(check bool) "busy time accumulated" true
        (sum (fun st -> st.Task_pool.busy_ns) >= 0);
      Task_pool.reset_stats pool;
      Alcotest.(check int) "reset_stats" 0 (sum (fun st -> st.Task_pool.tasks));
      Obs.reset ())

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE goldens                                             *)
(* ------------------------------------------------------------------ *)

let table () =
  Table.create
    [
      ("g", Column.ints [| 1; 1; 2; 2; 1; 2 |]);
      ("x", Column.ints [| 3; 1; 2; 5; 4; 1 |]);
      ("s", Column.strings [| "a"; "b"; "a"; "c"; "b"; "a" |]);
    ]

let q1 =
  "select rank() over (partition by g order by x) as r, sum(x) over (partition by g order by x \
   rows between 1 preceding and current row) as s1, count(*) over (partition by g order by x, s) \
   as c from t"

let q2 =
  "select x + 1 as y, row_number() over (order by x desc) as rn from t where g = 1 order by rn \
   limit 2"

(* Masks wall times ("<float> ms" -> "# ms") and allocation counts
   ("<float> kw" -> "# kw"), and collapses the alignment padding (interior
   runs of spaces), keeping the indentation that carries the span tree
   structure.  Structure bytes (the "B"/"KB" memory column) are
   deterministic and stay unmasked. *)
let mask_report s =
  let mask_line line =
    let n = String.length line in
    let ind = ref 0 in
    while !ind < n && line.[!ind] = ' ' do
      incr ind
    done;
    let buf = Buffer.create n in
    Buffer.add_string buf (String.sub line 0 !ind);
    let is_num c = (c >= '0' && c <= '9') || c = '.' in
    let i = ref !ind in
    while !i < n do
      let c = line.[!i] in
      if is_num c then begin
        let j = ref !i in
        while !j < n && is_num line.[!j] do
          incr j
        done;
        if !j + 2 < n && line.[!j] = ' ' && line.[!j + 1] = 'm' && line.[!j + 2] = 's' then begin
          Buffer.add_string buf "# ms";
          i := !j + 3
        end
        else if !j + 2 < n && line.[!j] = ' ' && line.[!j + 1] = 'k' && line.[!j + 2] = 'w' then begin
          Buffer.add_string buf "# kw";
          i := !j + 3
        end
        else begin
          Buffer.add_string buf (String.sub line !i (!j - !i));
          i := !j
        end
      end
      else if c = ' ' then begin
        let j = ref !i in
        while !j < n && line.[!j] = ' ' do
          incr j
        done;
        Buffer.add_char buf ' ';
        i := !j
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    done;
    Buffer.contents buf
  in
  String.concat "\n" (List.map mask_line (String.split_on_char '\n' s))

let golden1 =
  {|from: t
select window: rank() over (partition by g order by x) as r
select window: sum(x) over (partition by g order by x rows between 1 preceding and current row) as s1
select window: count(*) over (partition by g order by x, s) as c
rows: 6 (504 B)
sql.query # ms - # kw
  sql.window # ms - # kw
    window_plan {rows=6, clauses=3} # ms - # kw
      partition_ids {by=g} # ms - # kw
      sort {order=x, s, kind=full, path=encoded, rows=6} # ms 88 B # kw
        sort.runs {n=6, runs=1} # ms - # kw
      choose {item=r, evaluator=mst, cost=mst=2.9us, rejected=naive=0.0us,ost=0.2us} # ms - # kw
      choose {item=s1, evaluator=segment-tree, cost=segment-tree=0.1us, rejected=naive=0.0us} # ms - # kw
      eval {order=x, s, partitions=2} # ms - # kw
        frame {order=x} x4 # ms - # kw
          build {kind=peers} x2 # ms 176 B # kw
        item {name=r, func=rank, evaluator=mst} x2 # ms - # kw
          build {kind=encode} x2 # ms 240 B # kw
            sort.runs {n=3, runs=1} x2 # ms - # kw
          build {kind=mst.rank} x2 # ms 152 B # kw
        item {name=s1, func=sum, evaluator=segment-tree} x2 # ms - # kw
          build {kind=remap} x2 # ms 192 B # kw
          build {kind=segment_tree} x2 # ms 272 B # kw
        frame {order=x, s} x2 # ms - # kw
          build {kind=peers} x2 # ms 176 B # kw
        item {name=c, func=count(*)} x2 # ms - # kw
    materialize {columns=3} # ms 288 B # kw
  sql.project {columns=3} # ms - # kw
counters
  cache.hit 2
  cache.miss 12
  mem.structure_bytes 1208
  plan.evaluator.mst 1
  plan.evaluator.segment-tree 1
  plan.full_sorts 1
  plan.partition_passes 1
  plan.reused_sorts 2
  plan.stages 1
  pool.busy_ns # ms
  pool.tasks 9
|}

let golden2 =
  {|from: t
where: (g = 1)
select expr: (x + 1) as y
select window: row_number() over (order by x desc) as rn
order by: rn
limit: 2
rows: 2 (280 B)
sql.query # ms - # kw
  sql.where {in=6, out=3} # ms 464 B # kw
  sql.window # ms - # kw
    window_plan {rows=3, clauses=1} # ms - # kw
      partition_ids {by=} # ms - # kw
      sort {order=x desc, kind=full, path=encoded, rows=3} # ms 56 B # kw
        sort.runs {n=3, runs=1} # ms - # kw
      choose {item=rn, evaluator=mst, cost=mst=1.4us, rejected=naive=0.0us,ost=0.1us} # ms - # kw
      eval {order=x desc, partitions=1} # ms - # kw
        frame {order=x desc} # ms - # kw
          build {kind=peers} # ms 88 B # kw
        item {name=rn, func=row_number, evaluator=mst} # ms - # kw
          build {kind=encode} # ms 120 B # kw
          build {kind=mst.row} # ms 76 B # kw
    materialize {columns=1} # ms 72 B # kw
  sql.project {columns=2} # ms 72 B # kw
  sql.order_by {rows=3} # ms - # kw
    sort.runs {n=3, runs=1} # ms - # kw
counters
  cache.miss 3
  mem.structure_bytes 284
  plan.evaluator.mst 1
  plan.full_sorts 1
  plan.partition_passes 1
  plan.stages 1
  pool.busy_ns # ms
  pool.tasks 3
|}

let golden_case query golden () =
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      let _, report = Sql.explain_analyze ~pool ~tables:[ ("t", table ()) ] query in
      Alcotest.(check string) "masked report" golden (mask_report report))

(* With tracing disabled, EXPLAIN ANALYZE and a plain query agree cell for
   cell, and explain_analyze leaves tracing in the state it found it. *)
let test_disabled_parity () =
  Obs.disable ();
  let pool = Task_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Task_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun q ->
          let plain = Sql.query ~pool ~tables:[ ("t", table ()) ] q in
          let traced, _ = Sql.explain_analyze ~pool ~tables:[ ("t", table ()) ] q in
          Alcotest.(check bool) "tracing left disabled" false (Obs.enabled ());
          Alcotest.(check (list string)) "columns"
            (Table.column_names plain) (Table.column_names traced);
          List.iter
            (fun name ->
              let cp = Table.column plain name and ct = Table.column traced name in
              for r = 0 to Table.nrows plain - 1 do
                if not (Value.equal (Column.get cp r) (Column.get ct r)) then
                  Alcotest.failf "query %s: row %d col %s differs" q r name
              done)
            (Table.column_names plain))
        [ q1; q2 ])

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "monotonic clock" `Quick test_now_ns;
          Alcotest.test_case "span nesting and args" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
          Alcotest.test_case "annotate" `Quick test_annotate;
          Alcotest.test_case "counters: gating, registry, reset" `Quick test_counters;
          Alcotest.test_case "with_capture restores state" `Quick test_with_capture_restores;
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "render aggregates siblings" `Quick test_render_aggregates;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket layout" `Quick test_hist_buckets;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "gating, registry, reset" `Quick test_hist_gating;
          Alcotest.test_case "histograms in traces" `Quick test_hists_in_trace;
        ] );
      ( "memory",
        [
          Alcotest.test_case "record_bytes attribution" `Quick test_record_bytes;
          Alcotest.test_case "GC sampling per span" `Quick test_gc_sampling;
          Alcotest.test_case "promotion lag charges no span" `Quick test_gc_promotion_alloc;
          Alcotest.test_case "self_totals" `Quick test_self_totals;
          Alcotest.test_case "footprint parity (64-bit MST)" `Quick test_footprint_parity;
        ] );
      ("pool", [ Alcotest.test_case "worker statistics" `Quick test_pool_stats ]);
      ( "explain-analyze",
        [
          Alcotest.test_case "golden: multi-OVER sharing" `Quick (golden_case q1 golden1);
          Alcotest.test_case "golden: where/project/order by" `Quick (golden_case q2 golden2);
          Alcotest.test_case "disabled-tracing parity" `Quick test_disabled_parity;
        ] );
    ]
