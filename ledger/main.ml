(* The layer ledger: one workload, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it runs the workload's closed loop through the public
   SQL and session API for S seconds with engine tracing off and prints
   the end-to-end metrics; with [--trace 1] it runs the same statements
   again under the engine's span recorder and prints the per-layer
   metrics.  Outputs are checked in both runs.  The
   last line of standard output is one JSON object: correct, attempted,
   failed and metrics (each a value with its unit). *)

module W = Ledger_lib.Workloads
module Drive = Ledger_lib.Drive
module Metrics = Ledger_lib.Metrics
module Trace = Ledger_lib.Trace
module Host = Ledger_lib.Host

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun _ -> usage ())
    "ledger";
  let w = match W.find !workload with Some w -> w | None -> usage () in
  let domains = match w.W.domains with Some d -> d | None -> Domain.recommended_domain_count () in
  (* every pool the engine creates — including the session API's default
     pool — gets the workload's domain count *)
  Unix.putenv "HOLIWIN_DOMAINS" (string_of_int domains);
  let pool = Holistic_parallel.Task_pool.default () in
  let dir = ".ledger_tmp" in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let tally = { Drive.attempted = 0; failed = 0 } in
  Printf.printf "workload %s: seed %d, %.0f s, %d domain(s), trace %d\n%!" w.W.name !seed !seconds domains !trace;
  Host.start_reference ~domains;
  let metrics =
    Fun.protect ~finally:(fun () -> Host.stop_reference (); rm_rf dir) @@ fun () ->
    if !trace = 0 then begin
      let e = Drive.e2e w ~seed:!seed ~seconds:!seconds ~dir ~pool tally in
      let ms, note = Metrics.end_to_end e ~attempted:tally.Drive.attempted ~failed:tally.Drive.failed in
      print_endline note;
      ms
    end
    else begin
      let host_sort = Host.sort_ns_per_key () and host_scan = Host.scan_ns_per_word () in
      (* every span feeds the metrics; the first round's (its first
         append and re-queries, under churn) are also written out, one
         file per workload, overwritten by the next traced run *)
      let t = Drive.traced w ~seed:!seed ~seconds:!seconds ~dir ~pool tally in
      let out = ".ledger_out" in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let path = Filename.concat out (Printf.sprintf "spans-%s.jsonl" w.W.name) in
      let kept = List.rev t.Drive.spans.Trace.kept in
      Trace.write_jsonl path kept;
      Printf.printf "the first round's %d spans written to %s\n" (List.length kept) path;
      Metrics.per_layer ~domains ~host_sort ~host_scan t
    end
  in
  List.iter (fun (x : Metrics.metric) -> Printf.printf "  %-40s %16.4f %s\n" x.Metrics.name x.Metrics.value x.Metrics.unit_) metrics;
  print_endline (Metrics.to_json ~attempted:tally.Drive.attempted ~failed:tally.Drive.failed metrics);
  Holistic_parallel.Task_pool.shutdown pool
