(* Metric names, units and their computation from a run's measurements.

   End-to-end metrics come from the untraced run; per-layer metrics from
   the traced run: the engine's spans charged to layers (self times, self
   allocation), the engine's counters, and the benchmark's own counts. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

let sorted_ms ns = List.sort compare (List.map (fun x -> x /. 1e6) ns)

let percentile sorted p =
  let a = Array.of_list sorted in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The highest whole percentile with at least [beyond] samples above its
   position, and its value: [(p, value)]. *)
let tail ?(beyond = 10) sorted =
  let n = List.length sorted in
  let rec go p =
    if p <= 50 then (50, percentile sorted 50.0)
    else
      let idx = int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n)) - 1 in
      if n - 1 - idx >= beyond then (p, percentile sorted (float_of_int p)) else go (p - 1)
  in
  go 99

let shape_medians_ms (lat : (string * float) list) =
  List.map
    (fun l -> (l, Host.median (List.filter_map (fun (l', x) -> if l = l' then Some (x /. 1e6) else None) lat)))
    (List.sort_uniq compare (List.map fst lat))

(* The typical statement latency: the geometric mean over statement
   shapes of each shape's median.  The pooled median of a mix of shapes
   falls inside whichever shape sits in the middle (or in the gap between
   the two middle ones), so that one shape's noise would set it alone. *)
let shape_median lat =
  let meds = shape_medians_ms lat in
  if meds = [] then 0.0
  else Float.exp (List.fold_left (fun a (_, x) -> a +. Float.log x) 0.0 meds /. float_of_int (List.length meds))

(* The heap size at the end of a timed operation (see {!Drive.timed}):
   the median over each statement shape's operations, for the shape whose
   median is largest.  One operation's figure depends on how much of its
   garbage the collector has already swept, so the median is the steady
   reading. *)
let peak_heap_mb (heaps : (string * int) list) =
  let per_shape =
    List.map
      (fun l -> Host.median (List.filter_map (fun (l', w) -> if l = l' then Some (float_of_int w) else None) heaps))
      (List.sort_uniq compare (List.map fst heaps))
  in
  List.fold_left Float.max 0.0 per_shape *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

let end_to_end (e : Drive.e2e) ~attempted ~failed =
  let lat = sorted_ms (List.map snd e.Drive.latencies_ns) in
  let tail_p, tail_v = tail lat in
  ( [
      m "setup_s" "s" e.Drive.setup;
      m "query_ms_p50" "ms" (shape_median e.Drive.latencies_ns);
      m "query_ms_tail" "ms" tail_v;
      m "rows_per_s" "rows/s"
        (float_of_int e.Drive.rows /. (List.fold_left (fun a (_, x) -> a +. x) 1.0 e.Drive.latencies_ns /. 1e9));
      m "peak_heap_mb" "MB" (peak_heap_mb e.Drive.heaps);
      m "ops_ok_ratio" "ratio" (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    ],
    Printf.sprintf "query_ms_tail is p%d of %d statement latencies; median ms per shape: %s" tail_p (List.length lat)
      (String.concat ", " (List.map (fun (l, x) -> Printf.sprintf "%s %.1f" l x) (shape_medians_ms e.Drive.latencies_ns))) )

(* ------------------------------------------------------------------ *)
(* Per layer                                                           *)
(* ------------------------------------------------------------------ *)

type per = Rows | Parse | Appended | Evicted | Requeried

(* Time layers ({!Trace.layers_of}) and what their time is divided by.
   All are self times except [session.requery], a re-query's whole wall
   (its own layers are also counted under their names), so under
   session-churn the shares sum past one. *)
let time_layers =
  [
    ("sql.parse", Parse);
    ("partition", Rows);
    ("key_codec.compile", Rows);
    ("sort.runs", Rows);
    ("sort.merge", Rows);
    ("spill.sort", Rows);
    ("frame", Rows);
    ("rank_encode", Rows);
    ("prev_occurrence", Rows);
    ("mst.build", Rows);
    ("eval.mst", Rows);
    ("eval.ost", Rows);
    ("eval.incremental", Rows);
    ("eval.segment-tree", Rows);
    ("eval.naive", Rows);
    ("materialize", Rows);
    ("session.append", Appended);
    ("session.evict", Evicted);
    ("session.requery", Requeried);
  ]

let suffix = function
  | Rows | Appended | Evicted | Requeried -> ("ns_per_row", "ns/row")
  | Parse -> ("us_per_stmt", "us/stmt")

let other_layer_metrics =
  [
    ("sort.alloc_words_per_row", "words/row");
    ("sort.ovc_decided_ratio", "ratio");
    ("mst.bytes_per_row", "bytes/row");
    ("cost_model.err_log2_p50", "log2");
    ("build_cache.hit_ratio", "ratio");
    ("pool.busy_share", "ratio");
    ("pool.wait_ns_per_task", "ns/task");
    ("pool.tasks", "count/stmt");
    ("session.reuse_ratio", "ratio");
    ("session.bytes_per_row", "bytes/row");
    ("session.append_ms_p50", "ms");
    ("session.evict_ms_p50", "ms");
    ("spill.bytes_per_row", "bytes/row");
    ("governor.peak_bytes_per_row", "bytes/row");
    ("qlog.overhead_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("host.sort_ns_per_key", "ns/key");
    ("host.scan_ns_per_word", "ns/word");
  ]

(* every per-layer metric name with its unit, in output order *)
let per_layer_names =
  List.concat_map
    (fun (base, per) ->
      let sfx, u = suffix per in
      [ (base ^ "." ^ sfx, u); (base ^ ".share", "ratio"); (base ^ ".alloc_words_per_row", "words/row") ])
    time_layers
  @ other_layer_metrics

let end_to_end_names =
  [
    ("setup_s", "s");
    ("query_ms_p50", "ms");
    ("query_ms_tail", "ms");
    ("rows_per_s", "rows/s");
    ("peak_heap_mb", "MB");
    ("ops_ok_ratio", "ratio");
  ]

let div a b = if b = 0.0 then 0.0 else a /. b

(* Allocation is reported only on one-domain pools: there the calling
   domain does all the work and the per-domain word counts are exact. *)
let per_layer ~domains ~host_sort ~host_scan (t : Drive.traced) =
  let acc = t.Drive.spans in
  let fi = float_of_int in
  let ns name = let x, _, _ = Trace.layer acc name in fi x in
  let words name = if domains = 1 then (let _, w, _ = Trace.layer acc name in fi w) else 0.0 in
  let _, _, parses = Trace.layer acc "sql.parse" in
  let rows = fi t.Drive.rows in
  let denom = function
    | Rows -> rows
    | Parse -> fi parses
    | Appended -> fi t.Drive.append_rows
    | Evicted -> fi t.Drive.evict_rows
    | Requeried -> fi t.Drive.requery_rows
  in
  let layer (base, per) =
    let sfx, u = suffix per in
    let scale = match per with Parse -> 1e-3 | _ -> 1.0 in
    let per_rows = match per with Parse -> rows | p -> denom p in
    [
      m (base ^ "." ^ sfx) u (scale *. div (ns base) (denom per));
      m (base ^ ".share") "ratio" (div (ns base) (fi acc.Trace.root_ns));
      m (base ^ ".alloc_words_per_row") "words/row" (div (words base) per_rows);
    ]
  in
  let c = Trace.counter acc in
  let decided = c "sort.ovc_decided" and scanned = c "sort.ovc_scanned" in
  let hits = c "cache.hit" and misses = c "cache.miss" in
  let tasks = c "pool.tasks" in
  let p50 l = percentile (sorted_ms (List.map float_of_int l)) 50.0 in
  List.concat_map layer time_layers
  @ [
      m "sort.alloc_words_per_row" "words/row"
        (div (words "key_codec.compile" +. words "sort.runs" +. words "sort.merge") rows);
      m "sort.ovc_decided_ratio" "ratio" (div (fi decided) (fi (decided + scanned)));
      m "mst.bytes_per_row" "bytes/row" (div (fi acc.Trace.mst_bytes) rows);
      m "cost_model.err_log2_p50" "log2" (Host.median acc.Trace.cost_err);
      m "build_cache.hit_ratio" "ratio" (div (fi hits) (fi (hits + misses)));
      m "pool.busy_share" "ratio" (div (fi (c "pool.busy_ns")) (fi (domains * t.Drive.traced_ns)));
      m "pool.wait_ns_per_task" "ns/task" (div (fi (c "pool.queue_wait_ns")) (fi tasks));
      m "pool.tasks" "count/stmt" (div (fi tasks) (fi t.Drive.stmts));
      m "session.reuse_ratio" "ratio" t.Drive.session_reuse;
      m "session.bytes_per_row" "bytes/row" t.Drive.session_bytes_per_row;
      m "session.append_ms_p50" "ms" (p50 t.Drive.append_lat);
      m "session.evict_ms_p50" "ms" (p50 t.Drive.evict_lat);
      m "spill.bytes_per_row" "bytes/row" (div (fi t.Drive.spill_bytes) rows);
      m "governor.peak_bytes_per_row" "bytes/row" t.Drive.governor_peak_per_row;
      m "qlog.overhead_ratio" "ratio" (div (fi t.Drive.sink_ns) (fi t.Drive.nosink_ns));
      m "trace.overhead_ratio" "ratio" (div (fi t.Drive.traced_ns) (fi t.Drive.untraced_ns));
      m "host.sort_ns_per_key" "ns/key" host_sort;
      m "host.scan_ns_per_word" "ns/word" host_scan;
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let to_json ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (failed = 0) attempted
    failed body
