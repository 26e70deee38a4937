(* The traced run's spans.  A traced statement is executed by the engine
   itself under [Obs.with_capture]: the engine's own spans (partition_ids,
   sort with sort.runs/sort.merge, frame, build kind=..., item
   evaluator=..., materialize, session.append/evict) are charged to the
   ledger's layers, and the benchmark adds only a root span per statement
   and a [sql.parse] span around [Parser.parse].  Self times and self
   allocation are computed here from the captured spans. *)

module Obs = Holistic_obs.Obs

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

(* Nanoseconds of [start_ns, stop_ns) that no child interval covers.
   Children are clipped to the parent and counted once where they overlap
   (children running in parallel on other domains). *)
let self_ns ~start_ns ~stop_ns children =
  let sorted = List.sort compare (List.map (fun (a, b) -> (max a start_ns, min b stop_ns)) children) in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, start_ns) sorted
  in
  max 0 (stop_ns - start_ns - covered)

type self = { span : Obs.span; self_ns : int; self_alloc : int }

(* Each span's self time, and its self allocation: its words minus those
   of its children on the same domain (a child on another domain
   allocates from that domain's counters, never from the parent's). *)
let self_times (spans : Obs.span list) =
  let kids = Hashtbl.create 64 in
  List.iter (fun (s : Obs.span) -> if s.Obs.parent >= 0 then Hashtbl.add kids s.Obs.parent s) spans;
  List.map
    (fun (s : Obs.span) ->
      let cs = Hashtbl.find_all kids s.Obs.id in
      let stop = s.Obs.t0_ns + s.Obs.dur_ns in
      let child_alloc =
        List.fold_left (fun a (c : Obs.span) -> if c.Obs.tid = s.Obs.tid then a + c.Obs.alloc_w else a) 0 cs
      in
      {
        span = s;
        self_ns =
          self_ns ~start_ns:s.Obs.t0_ns ~stop_ns:stop
            (List.map (fun (c : Obs.span) -> (c.Obs.t0_ns, c.Obs.t0_ns + c.Obs.dur_ns)) cs);
        self_alloc = max 0 (s.Obs.alloc_w - child_alloc);
      })
    spans

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

let arg (s : Obs.span) k = List.assoc_opt k s.Obs.args

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The ledger layers a span's self time is charged to.  [sort]'s self time
   is the key-codec compile (with the partition boundary recovery that
   reads its words); a spilled sort's runs and merge also count as
   [spill.sort]; the peer-group build counts as frame work. *)
let layers_of (s : Obs.span) =
  match s.Obs.name with
  | "sql.parse" -> [ "sql.parse" ]
  | "partition_ids" -> [ "partition" ]
  | "sort" -> [ "key_codec.compile" ]
  | ("sort.runs" | "sort.merge") as n -> if arg s "spilled" <> None then [ n; "spill.sort" ] else [ n ]
  | "frame" -> [ "frame" ]
  | "build" -> (
      match arg s "kind" with
      | Some "encode" -> [ "rank_encode" ]
      | Some "prev" -> [ "prev_occurrence" ]
      | Some "peers" -> [ "frame" ]
      | Some k when starts_with "mst." k -> [ "mst.build" ]
      | _ -> [])
  | "item" -> ( match arg s "evaluator" with Some e -> [ "eval." ^ e ] | None -> [])
  | "materialize" -> [ "materialize" ]
  | ("session.append" | "session.evict") as n -> [ n ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Accumulation over a run                                             *)
(* ------------------------------------------------------------------ *)

type acc = {
  layer : (string, int * int * int) Hashtbl.t;  (** layer -> self ns, self words, spans *)
  counters : (string, int) Hashtbl.t;  (** engine counters, summed over captures *)
  mutable root_ns : int;  (** wall of the captured root spans *)
  mutable mst_bytes : int;  (** footprint of the merge sort trees built *)
  mutable cost_err : float list;  (** |log2(measured / predicted)| per chosen item *)
  mutable dropped : int;  (** spans lost to the engine's bounded buffer *)
  mutable kept : (int * Obs.span) list;  (** spans written out, with their statement id *)
}

let create () =
  {
    layer = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    root_ns = 0;
    mst_bytes = 0;
    cost_err = [];
    dropped = 0;
    kept = [];
  }

let layer acc name = Option.value (Hashtbl.find_opt acc.layer name) ~default:(0, 0, 0)
let counter acc name = Option.value (Hashtbl.find_opt acc.counters name) ~default:0

(* The cost model's predicted total for a chosen item, from the [choose]
   span's ["cost"] argument ("<backend>=<us>us"). *)
let predicted_ns (s : Obs.span) =
  match arg s "cost" with
  | Some c -> (
      match String.index_opt c '=' with
      | Some i -> Option.map (fun us -> us *. 1e3) (float_of_string_opt (String.sub c (i + 1) (String.length c - i - 3)))
      | None -> None)
  | None -> None

(* Fold one capture into [acc]. *)
let account acc ~stmt ~keep (tr : Obs.trace) =
  acc.dropped <- acc.dropped + tr.Obs.dropped;
  List.iter
    (fun (n, v) -> Hashtbl.replace acc.counters n (counter acc n + v))
    tr.Obs.counters;
  List.iter
    (fun { span; self_ns; self_alloc } ->
      if span.Obs.name = "build" && Option.fold ~none:false ~some:(starts_with "mst.") (arg span "kind") then
        acc.mst_bytes <- acc.mst_bytes + span.Obs.bytes;
      List.iter
        (fun l ->
          let ns, w, k = layer acc l in
          Hashtbl.replace acc.layer l (ns + self_ns, w + self_alloc, k + 1))
        (layers_of span))
    (self_times tr.Obs.spans);
  (* measured item time (builds included, as the model predicts them)
     against the prediction, per item name *)
  let measured = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.name = "item" then
        Option.iter
          (fun nm -> Hashtbl.replace measured nm (s.Obs.dur_ns + Option.value (Hashtbl.find_opt measured nm) ~default:0))
          (arg s "name"))
    tr.Obs.spans;
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.name = "choose" then
        match arg s "item", predicted_ns s with
        | Some nm, Some p when p > 0.0 -> (
            match Hashtbl.find_opt measured nm with
            | Some m when m > 0 -> acc.cost_err <- Float.abs (Float.log2 (float_of_int m /. p)) :: acc.cost_err
            | _ -> ())
        | _ -> ())
    tr.Obs.spans;
  if keep then acc.kept <- List.rev_append (List.map (fun s -> (stmt, s)) tr.Obs.spans) acc.kept

(* [f] under the engine's span recorder, inside a root span named
   [statement]; its spans are folded into [acc] (and kept for writing out
   when [keep]).  Returns [f]'s result and the root span. *)
let capture acc ~stmt ~keep f =
  let r, tr = Obs.with_capture (fun () -> Obs.span "statement" f) in
  account acc ~stmt ~keep tr;
  let root = List.find (fun (s : Obs.span) -> s.Obs.parent < 0 && s.Obs.name = "statement") tr.Obs.spans in
  acc.root_ns <- acc.root_ns + root.Obs.dur_ns;
  (r, root)

(* One JSON object per line: statement id, span id, parent, name, start,
   end (ns), domain, allocated words and the engine's span arguments. *)
let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (stmt, (s : Obs.span)) ->
          Printf.fprintf oc
            "{\"stmt\": %d, \"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_ns\": %d, \"end_ns\": %d, \"tid\": %d, \"alloc_w\": %d, \"args\": {%s}}\n"
            stmt s.Obs.id s.Obs.parent (Obs.json_escape s.Obs.name) s.Obs.t0_ns (s.Obs.t0_ns + s.Obs.dur_ns) s.Obs.tid
            s.Obs.alloc_w
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (Obs.json_escape k) (Obs.json_escape v)) s.Obs.args)))
        spans)
