(* Tests of the layer ledger's own arithmetic and fidelity: self time
   under nested and overlapping child spans, metric naming, and traced
   parity (under the span recorder the engine reproduces its untraced
   outputs bit for bit, and each workload loads the layers it is designed
   to load). *)

open Ledger_lib
module Task_pool = Holistic_parallel.Task_pool
module Obs = Holistic_obs.Obs

let failures = ref 0

let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let span ?(tid = 0) ?(alloc = 0) ~id ~parent ~start ~stop () =
  {
    Obs.id;
    parent;
    name = "s";
    tid;
    t0_ns = start;
    dur_ns = stop - start;
    args = [];
    alloc_w = alloc;
    promoted_w = 0;
    majors = 0;
    bytes = 0;
  }

let test_self_time () =
  check "self time: disjoint children" (Trace.self_ns ~start_ns:0 ~stop_ns:100 [ (10, 20); (50, 70) ] = 70);
  check "self time: overlapping (parallel) children count once"
    (Trace.self_ns ~start_ns:0 ~stop_ns:100 [ (10, 40); (20, 50); (45, 60) ] = 50);
  check "self time: children outside the parent are clipped"
    (Trace.self_ns ~start_ns:100 ~stop_ns:200 [ (50, 120); (190, 400) ] = 70);
  check "self time: a child covering the parent leaves nothing"
    (Trace.self_ns ~start_ns:0 ~stop_ns:10 [ (0, 5); (0, 10) ] = 0);
  (* root 0..100; child 10..60 with grandchild 20..40; two parallel
     children 50..90 and 55..95 on another domain (also under the root) *)
  let spans =
    [
      span ~id:0 ~parent:(-1) ~start:0 ~stop:100 ~alloc:100 ();
      span ~id:1 ~parent:0 ~start:10 ~stop:60 ~alloc:30 ();
      span ~id:2 ~parent:1 ~start:20 ~stop:40 ~alloc:10 ();
      span ~id:3 ~parent:0 ~start:50 ~stop:90 ~tid:1 ~alloc:7 ();
      span ~id:4 ~parent:0 ~start:55 ~stop:95 ~tid:1 ~alloc:7 ();
    ]
  in
  let self = List.map (fun (s : Trace.self) -> (s.Trace.span.Obs.id, s.Trace.self_ns, s.Trace.self_alloc)) (Trace.self_times spans) in
  check "self time and allocation: nested tree"
    (List.sort compare self = [ (0, 15, 70); (1, 30, 20); (2, 20, 10); (3, 40, 7); (4, 40, 7) ]);
  (* the engine's recorder nests a benchmark span and the engine's own *)
  let acc = Trace.create () in
  let _, root =
    Trace.capture acc ~stmt:1 ~keep:true (fun () ->
        Obs.span "sql.parse" (fun () -> Obs.span "sort.runs" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)))))
  in
  match List.rev acc.Trace.kept with
  | [ (1, r); (1, parse); (1, runs) ] ->
      check "captured spans nest"
        (r.Obs.id = root.Obs.id && parse.Obs.parent = r.Obs.id && runs.Obs.parent = parse.Obs.id);
      let _, _, n = Trace.layer acc "sort.runs" in
      check "captured spans are charged to layers" (n = 1 && acc.Trace.root_ns = root.Obs.dur_ns)
  | _ -> check "captured spans nest" false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s

let valid_unit u =
  let n = String.length u in
  n >= 1 && n <= 16
  && String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false) u

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_metric_names () =
  let all = Metrics.end_to_end_names @ Metrics.per_layer_names in
  List.iter (fun (n, u) -> check ("metric name/unit " ^ n) (valid_name n && valid_unit u)) all;
  let names = List.map fst all in
  check "metric names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  let bench = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun (n, u) ->
      check ("BENCHMARK.json lists " ^ n)
        (contains bench (Printf.sprintf "\"name\": %S, \"unit\": %S" n u)))
    all

(* One statement of every workload through the traced run: the engine's
   output under the span recorder must match its untraced output bit for
   bit (and the set-up's in-memory result), and the layers each workload
   is designed to load or bypass must show it. *)
let test_traced_parity () =
  let dir = "ledger-test-tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (w : Workloads.t) ->
      let name = w.Workloads.name in
      let w = { w with Workloads.statements = [ List.hd w.Workloads.statements ] } in
      let domains = match w.Workloads.domains with Some d -> d | None -> 2 in
      let pool = Task_pool.create domains in
      Host.start_reference ~domains;
      let tally = { Drive.attempted = 0; failed = 0 } in
      let t = Drive.traced w ~seed:3 ~seconds:0.0 ~dir ~pool tally in
      Host.stop_reference ();
      Task_pool.shutdown pool;
      check ("traced parity: " ^ name) (tally.Drive.attempted > 0 && tally.Drive.failed = 0);
      let ns layer = let x, _, _ = Trace.layer t.Drive.spans layer in x in
      check ("spills only under spill-bounded: " ^ name) ((ns "spill.sort" > 0) = (name = "spill-bounded"));
      check ("sessions only under session-churn: " ^ name) ((ns "session.append" > 0) = (name = "session-churn"));
      if name = "many-partitions" then check "no merge-sort-tree work on many-partitions" (ns "eval.mst" + ns "mst.build" = 0)
      else check ("frames charged: " ^ name) (ns "frame" > 0))
    Workloads.all

let () =
  Unix.putenv "HOLIWIN_DOMAINS" "1";
  test_self_time ();
  test_metric_names ();
  test_traced_parity ();
  Printf.printf "%d of %d ledger checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
