(* The two runs of a workload: the end-to-end run (engine tracing off,
   latencies from the public SQL and session calls) and the traced run
   (the same statements, each executed once by the engine untraced and
   once under the engine's span recorder; both outputs are checked). *)

open Holistic_storage
module Obs = Holistic_obs.Obs
module Sql = Holistic_sql.Sql
module Parser = Holistic_sql.Parser
module Planner = Holistic_sql.Planner
module Session = Holistic_window.Session
module Mem_governor = Holistic_window.Mem_governor
module Query_stats = Holistic_window.Query_stats
module W = Workloads

let setup_reps = 7

type tally = { mutable attempted : int; mutable failed : int }

(* One operation: counted as attempted; an exception or a [false] check
   counts it as failed. *)
let op tally f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | true -> ()
  | false -> tally.failed <- tally.failed + 1
  | exception e ->
      Printf.eprintf "operation failed: %s\n%!" (Printexc.to_string e);
      tally.failed <- tally.failed + 1

let now = Obs.now_ns
let elapsed_s t0 = float_of_int (now () - t0) /. 1e9

(* One timed operation: its wall time, the reference kernel's time around
   it (the mean of one run right before and one right after; see
   {!Host.reference_ns}) and the heap size at its end, before its garbage
   is collected.  A full major collection before each kernel, so the
   operation pays for the garbage it makes and not for its predecessors',
   neither kernel pays for the operation's, and the heap figure holds the
   operation's own memory on top of what is live between operations. *)
type sample = { wall_ns : int; kernel_ns : int; heap_words : int }

let timed f =
  Gc.full_major ();
  let k0 = Host.reference_ns () in
  let t0 = now () in
  let r = f () in
  let wall_ns = now () - t0 in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  Gc.full_major ();
  (r, { wall_ns; kernel_ns = (k0 + Host.reference_ns ()) / 2; heap_words })

(* Wall times (ns) scaled to the reference host speed, each by the median
   kernel time of the operations within [window] places of it in run
   order: the window follows the machine's drift, which is slow next to
   one operation, while averaging out the kernel's own noise. *)
let normalized ?(window = 5) samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i s ->
         let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
         let k = Host.median (List.init (hi - lo + 1) (fun j -> float_of_int a.(lo + j).kernel_ns)) in
         Host.normalize s.wall_ns ~reference_ns:(int_of_float k))
       a)

let normalized_labelled l = List.combine (List.map fst l) (normalized (List.map snd l))
let heaps_labelled l = List.map (fun (label, s) -> (label, s.heap_words)) l

(* [setup_reps] timed set-ups, each one's state released before the next
   is built; the last one's state and the median normalized time (s). *)
let repeated_setup one =
  let last = ref None and samples = ref [] in
  for rep = 1 to setup_reps do
    last := None;
    let env, dt = timed (fun () -> one rep) in
    last := Some env;
    samples := dt :: !samples
  done;
  (Option.get !last, Host.median (List.map (fun ns -> ns /. 1e9) (normalized (List.rev !samples))))

(* Scratch files (spill runs, the query log) live under [dir], inside the
   checkout. *)
let with_governor ~dir budget f =
  match budget with
  | None -> f None
  | Some b ->
      let g = Mem_governor.create ~budget:b ~dir () in
      Fun.protect ~finally:(fun () -> Mem_governor.cleanup g) (fun () -> f (Some g))

(* a governed run spilled and stayed under its ceiling *)
let governed_ok governor budget =
  match governor, budget with
  | Some g, Some b -> snd (Mem_governor.totals g) > 0 && Mem_governor.peak g <= b
  | _ -> true

let input_rows tables (s : W.stmt) = Table.nrows (List.assoc s.W.table tables)
let item_names sql = List.filter_map (fun (it : Holistic_sql.Ast.select_item) -> it.Holistic_sql.Ast.alias) (Parser.parse sql).Holistic_sql.Ast.select

let same_columns a b names =
  List.for_all (fun nm -> Check.column_equal (Table.column a nm) (Table.column b nm)) names

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type stmt_env = {
  budget : int option;
  expected : Digest.t;  (** digest of the statement's in-memory result *)
}

type stateless_env = { tables : (string * Table.t) list; stmts : (string * stmt_env) list; setup_s : float }

(* Data generation, table build, the per-statement budget (spill-bounded:
   a fraction of the accounted peak of an unbudgeted, in-memory run) and
   one warm-up execution of every statement.  The in-memory result's
   digest is what every later run of the statement must reproduce, and
   the (governed) warm-up must already reproduce it; those checks are not
   timed. *)
let stateless_setup (w : W.t) ~seed ~dir ~pool tally =
  let spill_fraction = match w.W.kind with W.Stateless { spill_fraction } -> spill_fraction | W.Churn _ -> None in
  let one _ =
    let tables = w.W.tables ~seed in
    let runs =
      List.map
        (fun (s : W.stmt) ->
          let budget, in_memory =
            match spill_fraction with
            | None -> (None, None)
            | Some frac ->
                let g = Mem_governor.create ~dir () in
                Fun.protect ~finally:(fun () -> Mem_governor.cleanup g) (fun () ->
                    let r = Sql.query ~pool ~governor:g ~tables s.W.sql in
                    (Some (int_of_float (frac *. float_of_int (Mem_governor.peak g))), Some r))
          in
          let warm =
            with_governor ~dir budget (fun governor ->
                let r = Sql.query ~pool ?governor ~tables s.W.sql in
                (r, governed_ok governor budget))
          in
          (s, budget, Option.value in_memory ~default:(fst warm), warm))
        w.W.statements
    in
    (tables, runs)
  in
  let (tables, runs), setup_s = repeated_setup one in
  let stmts =
    List.map
      (fun ((s : W.stmt), budget, in_memory, (warm, warm_ok)) ->
        let names = item_names s.W.sql in
        let expected = Check.digest in_memory names in
        op tally (fun () -> warm_ok && Check.digest warm names = expected);
        (s.W.label, { budget; expected }))
      runs
  in
  { tables; stmts; setup_s }

(* the naive oracle on a prefix of every statement's table *)
let reference_checks tally ~pool tables (statements : W.stmt list) =
  List.iter
    (fun (s : W.stmt) ->
      op tally (fun () -> Check.against_reference ~pool ~tables ~table_name:s.W.table ~rows:1_500 s.W.sql))
    statements

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* times are host-speed normalized (see [normalized]) *)
type e2e = {
  setup : float;  (** seconds *)
  latencies_ns : (string * float) list;  (** statement label, latency *)
  heaps : (string * int) list;  (** statement label, heap words at its end *)
  rows : int;  (** input rows of the timed statements *)
}

let stateless_e2e (w : W.t) ~seed ~seconds ~dir ~pool tally =
  let env = stateless_setup w ~seed ~dir ~pool tally in
  reference_checks tally ~pool env.tables w.W.statements;
  let lat = ref [] and rows = ref 0 in
  let t_start = now () in
  while elapsed_s t_start < seconds do
    List.iter
      (fun (s : W.stmt) ->
        let se = List.assoc s.W.label env.stmts in
        op tally (fun () ->
            with_governor ~dir se.budget (fun governor ->
                let r, dt = timed (fun () -> Sql.query ~pool ?governor ~tables:env.tables s.W.sql) in
                lat := (s.W.label, dt) :: !lat;
                rows := !rows + input_rows env.tables s;
                (* untimed: the in-memory result, reproduced *)
                Check.digest r (item_names s.W.sql) = se.expected && governed_ok governor se.budget)))
      w.W.statements
  done;
  let lat = List.rev !lat in
  { setup = env.setup_s; latencies_ns = normalized_labelled lat; heaps = heaps_labelled lat; rows = !rows }

(* ---- session churn ---- *)

let dates_of table name =
  match Column.data (Table.column table name) with
  | Column.Dates a | Column.Ints a -> a
  | _ -> invalid_arg "expected a date column"

(* [fraction] of the base rows, generated from the step's own seed, with
   ship dates at or after the table's latest one: an in-order append. *)
let make_delta ~seed ~step ~base_rows ~fraction table =
  let d = max 1 (int_of_float (fraction *. float_of_int base_rows)) in
  let gen = Holistic_data.Tpch.lineitem ~seed:((seed * 7919) + step) ~rows:d () in
  let latest = Array.fold_left max min_int (dates_of table "l_shipdate") in
  let ship = Array.init d (fun i -> latest + (3 * i / d)) in
  Table.create
    (List.map (fun (nm, c) -> if nm = "l_shipdate" then (nm, Column.dates ship) else (nm, c)) (Table.columns gen))

(* the ship date below which the oldest [fraction] of rows lie *)
let evict_predicate ~fraction table =
  let a = Array.copy (dates_of table "l_shipdate") in
  Array.sort compare a;
  let cutoff = a.(min (Array.length a - 1) (int_of_float (fraction *. float_of_int (Array.length a)))) in
  Printf.sprintf "l_shipdate < date '%s'" (Value.date_to_string cutoff)

type churn_env = { base : Table.t; sessions : Session.t list; sink : Query_stats.Log.sink }

(* base table, [nsessions] sessions over it, the query-log sink and one
   warm-up query of every statement per session *)
let churn_setup (w : W.t) ~seed ~dir ~pool ~nsessions =
  let sinks = ref [] in
  let one rep =
    let base = List.assoc "t" (w.W.tables ~seed) in
    let sessions = List.init nsessions (fun _ -> Sql.session_create ~pool base) in
    let sink = Query_stats.Log.open_ (Filename.concat dir (Printf.sprintf "qlog-%d.jsonl" rep)) in
    sinks := sink :: !sinks;
    List.iter
      (fun s -> List.iter (fun (st : W.stmt) -> ignore (Sql.session_query ~query_log:sink s st.W.sql)) w.W.statements)
      sessions;
    { base; sessions; sink }
  in
  let env, setup = repeated_setup one in
  List.iter (fun k -> if k != env.sink then Query_stats.Log.close k) !sinks;
  (env, setup)

let churn_params (w : W.t) =
  match w.W.kind with
  | W.Churn p -> p
  | W.Stateless _ -> invalid_arg "not a churn workload"

(* The churn loop, shared by both runs: [append], [query] and [evict]
   receive the step's inputs; [checkpoint] runs untimed every
   [check_every] steps. *)
let churn_loop (w : W.t) ~seed ~seconds ~base_rows ~table ~append ~query ~evict ~checkpoint =
  let p = churn_params w in
  let t_start = now () and step = ref 0 in
  while !step = 0 || elapsed_s t_start < seconds do
    incr step;
    let k = !step in
    let delta =
      make_delta ~seed ~step:k ~base_rows ~fraction:p.W.step_fraction (table ())
    in
    append delta;
    List.iter query w.W.statements;
    if k mod p.W.check_every = 0 then checkpoint ();
    if k mod p.W.evict_every = 0 then evict (evict_predicate ~fraction:p.W.evict_fraction (table ()))
  done

let stateless_check tally ~pool table (statements : W.stmt list) results =
  List.iter
    (fun (st : W.stmt) ->
      op tally (fun () ->
          let expected = Sql.query ~pool ~tables:[ ("t", table) ] st.W.sql in
          same_columns (List.assoc st.W.label results) expected (item_names st.W.sql)))
    statements

let churn_e2e (w : W.t) ~seed ~seconds ~dir ~pool tally =
  let env, setup = churn_setup w ~seed ~dir ~pool ~nsessions:1 in
  let s = List.hd env.sessions in
  reference_checks tally ~pool [ ("t", env.base) ] w.W.statements;
  let lat = ref [] and rows = ref 0 in
  let last = ref [] in
  churn_loop w ~seed ~seconds ~base_rows:(Table.nrows env.base)
    ~table:(fun () -> Sql.session_table s)
    ~append:(fun delta -> op tally (fun () -> Sql.session_append s delta; true))
    ~query:(fun st ->
      op tally (fun () ->
          let r, dt = timed (fun () -> Sql.session_query ~query_log:env.sink s st.W.sql) in
          lat := (st.W.label, dt) :: !lat;
          rows := !rows + Table.nrows (Sql.session_table s);
          last := (st.W.label, r) :: List.remove_assoc st.W.label !last;
          true))
    ~evict:(fun pred -> op tally (fun () -> Sql.session_evict s pred; true))
    ~checkpoint:(fun () -> stateless_check tally ~pool (Sql.session_table s) w.W.statements !last);
  Query_stats.Log.close env.sink;
  let lat = List.rev !lat in
  { setup; latencies_ns = normalized_labelled lat; heaps = heaps_labelled lat; rows = !rows }

let e2e (w : W.t) =
  match w.W.kind with W.Stateless _ -> stateless_e2e w | W.Churn _ -> churn_e2e w

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

type traced = {
  spans : Trace.acc;  (** the engine's spans, charged to layers *)
  mutable rows : int;  (** input rows of the traced statements *)
  mutable stmts : int;
  mutable untraced_ns : int;  (** engine wall of the same statements, untraced *)
  mutable traced_ns : int;  (** engine wall under the span recorder *)
  mutable spill_bytes : int;
  mutable governor_peak_per_row : float;  (** highest accounted peak of a governed statement, per input row *)
  (* session-churn only *)
  mutable append_rows : int;
  mutable evict_rows : int;
  mutable requery_rows : int;
  mutable sink_ns : int;  (** re-query wall with the query log on *)
  mutable nosink_ns : int;  (** the same re-queries with no sink *)
  mutable session_reuse : float;
  mutable session_bytes_per_row : float;
  mutable append_lat : int list;
  mutable evict_lat : int list;
}

let new_traced () =
  {
    spans = Trace.create ();
    rows = 0;
    stmts = 0;
    untraced_ns = 0;
    traced_ns = 0;
    spill_bytes = 0;
    governor_peak_per_row = 0.0;
    append_rows = 0;
    evict_rows = 0;
    requery_rows = 0;
    sink_ns = 0;
    nosink_ns = 0;
    session_reuse = 0.0;
    session_bytes_per_row = 0.0;
    append_lat = [];
    evict_lat = [];
  }

(* A statement as [Sql.query] runs it ([Parser.parse], then the planner),
   with a benchmark span around the parse. *)
let traced_query ?pool ?governor ?session ~tables sql =
  let ast = Obs.span "sql.parse" (fun () -> Parser.parse sql) in
  Planner.run ?pool ?governor ?session ~tables ast

(* the spans of the first round (its first append and re-queries, under
   churn) are kept for writing out *)
let keep_round t (w : W.t) = t.stmts < List.length w.W.statements + 1

let stateless_traced (w : W.t) ~seed ~seconds ~dir ~pool tally =
  let env = stateless_setup w ~seed ~dir ~pool tally in
  reference_checks tally ~pool env.tables w.W.statements;
  let t = new_traced () in
  let t_start = now () and round = ref 0 in
  while !round = 0 || elapsed_s t_start < seconds do
    incr round;
    List.iter
      (fun (s : W.stmt) ->
        let table = List.assoc s.W.table env.tables in
        let se = List.assoc s.W.label env.stmts in
        let names = item_names s.W.sql in
        (* the engine, untraced *)
        op tally (fun () ->
            with_governor ~dir se.budget (fun governor ->
                let t0 = now () in
                let r = Sql.query ~pool ?governor ~tables:env.tables s.W.sql in
                t.untraced_ns <- t.untraced_ns + (now () - t0);
                Option.iter
                  (fun g ->
                    t.spill_bytes <- t.spill_bytes + snd (Mem_governor.totals g);
                    t.governor_peak_per_row <-
                      Float.max t.governor_peak_per_row
                        (float_of_int (Mem_governor.peak g) /. float_of_int (Table.nrows table)))
                  governor;
                Check.digest r names = se.expected && governed_ok governor se.budget));
        (* the engine, traced *)
        op tally (fun () ->
            with_governor ~dir se.budget (fun governor ->
                let r, root =
                  Trace.capture t.spans ~stmt:(t.stmts + 1) ~keep:(keep_round t w) (fun () ->
                      traced_query ~pool ?governor ~tables:env.tables s.W.sql)
                in
                t.traced_ns <- t.traced_ns + root.Obs.dur_ns;
                t.rows <- t.rows + Table.nrows table;
                t.stmts <- t.stmts + 1;
                Check.digest r names = se.expected && governed_ok governor se.budget)))
      w.W.statements
  done;
  t

let churn_traced (w : W.t) ~seed ~seconds ~dir ~pool tally =
  (* three sessions in lock-step: [a] through the SQL API with the query
     log, [c] through the SQL API without it, [b] under the span recorder *)
  let env, _ = churn_setup w ~seed ~dir ~pool ~nsessions:3 in
  let a, b, c =
    match env.sessions with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  reference_checks tally ~pool [ ("t", env.base) ] w.W.statements;
  let t = new_traced () in
  let last = ref [] in
  let wall f =
    let t0 = now () in
    f ();
    now () - t0
  in
  let capture f =
    let r, root = Trace.capture t.spans ~stmt:(t.stmts + 1) ~keep:(keep_round t w) f in
    t.stmts <- t.stmts + 1;
    (r, root)
  in
  let requery_ns = ref 0 and requery_w = ref 0 in
  churn_loop w ~seed ~seconds ~base_rows:(Table.nrows env.base)
    ~table:(fun () -> Session.table b)
    ~append:(fun delta ->
      op tally (fun () ->
          t.append_lat <- wall (fun () -> Sql.session_append a delta) :: t.append_lat;
          Sql.session_append c delta;
          ignore (capture (fun () -> Sql.session_append b delta));
          t.append_rows <- t.append_rows + Table.nrows delta;
          true))
    ~query:(fun st ->
      op tally (fun () ->
          let t0 = now () in
          let ra = Sql.session_query ~query_log:env.sink a st.W.sql in
          let t1 = now () in
          ignore (Sql.session_query c st.W.sql);
          let t2 = now () in
          let table = Session.table b in
          let rb, root = capture (fun () -> traced_query ~session:b ~tables:[ ("t", table) ] st.W.sql) in
          t.sink_ns <- t.sink_ns + (t1 - t0);
          t.nosink_ns <- t.nosink_ns + (t2 - t1);
          t.untraced_ns <- t.untraced_ns + (t2 - t1);
          t.traced_ns <- t.traced_ns + root.Obs.dur_ns;
          requery_ns := !requery_ns + root.Obs.dur_ns;
          requery_w := !requery_w + root.Obs.alloc_w;
          t.requery_rows <- t.requery_rows + Table.nrows table;
          t.rows <- t.rows + Table.nrows table;
          last := (st.W.label, ra) :: List.remove_assoc st.W.label !last;
          same_columns rb ra (item_names st.W.sql)))
    ~evict:(fun pred ->
      op tally (fun () ->
          t.evict_lat <- wall (fun () -> Sql.session_evict a pred) :: t.evict_lat;
          Sql.session_evict c pred;
          let before = Table.nrows (Session.table b) in
          ignore (capture (fun () -> Sql.session_evict b pred));
          t.evict_rows <- t.evict_rows + before - Table.nrows (Session.table b);
          Table.nrows (Session.table a) = Table.nrows (Session.table b)))
    ~checkpoint:(fun () -> stateless_check tally ~pool (Sql.session_table a) w.W.statements !last);
  Query_stats.Log.close env.sink;
  Hashtbl.replace t.spans.Trace.layer "session.requery" (!requery_ns, !requery_w, t.requery_rows);
  let st = Session.stats b in
  let lookups = st.Session.reused + st.Session.extended + st.Session.rebuilt in
  t.session_reuse <-
    (if lookups = 0 then 0.0 else float_of_int (st.Session.reused + st.Session.extended) /. float_of_int lookups);
  t.session_bytes_per_row <-
    float_of_int (Session.footprint_bytes b) /. float_of_int (max 1 (Table.nrows (Session.table b)));
  t

let traced (w : W.t) ~seed ~seconds ~dir ~pool tally =
  let t =
    match w.W.kind with
    | W.Stateless _ -> stateless_traced w ~seed ~seconds ~dir ~pool tally
    | W.Churn _ -> churn_traced w ~seed ~seconds ~dir ~pool tally
  in
  (* a span lost to the engine's bounded buffer would leave a layer short *)
  op tally (fun () -> t.spans.Trace.dropped = 0);
  t
