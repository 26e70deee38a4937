(* Lowering of a parsed benchmark statement into window-plan clauses, the
   input of the naive oracle [Reference.run] (the planner lowers window
   calls internally and exposes only [Planner.lower_expr]).  Used for the
   oracle check alone; nothing timed or traced runs through it, and a
   lowering that disagreed with the planner's would show as a failed
   check, never as a silently different measurement.

   It covers the subset the benchmark's statements use — every select item
   is an aliased window call, no WHERE, no named windows, no final ORDER BY
   or LIMIT — and groups items into clauses by structural spec equality in
   first-appearance order, as the SQL planner does.  Anything outside the
   subset raises. *)

open Holistic_storage
open Holistic_window
module Ast = Holistic_sql.Ast
module Planner = Holistic_sql.Planner
module Wf = Window_func

let fail fmt = Printf.ksprintf failwith fmt

let lower_order table (keys : Ast.order_key list) : Sort_spec.t =
  List.map
    (fun (k : Ast.order_key) ->
      {
        Sort_spec.expr = Planner.lower_expr table k.Ast.expr;
        direction = (if k.Ast.desc then Sort_spec.Desc else Sort_spec.Asc);
        nulls =
          (match k.Ast.nulls_first with
          | None -> Sort_spec.Nulls_default
          | Some true -> Sort_spec.Nulls_first
          | Some false -> Sort_spec.Nulls_last);
      })
    keys

let lower_bound table = function
  | Ast.Unbounded_preceding -> Window_spec.Unbounded_preceding
  | Ast.Preceding e -> Window_spec.Preceding (Planner.lower_expr table e)
  | Ast.Current_row -> Window_spec.Current_row
  | Ast.Following e -> Window_spec.Following (Planner.lower_expr table e)
  | Ast.Unbounded_following -> Window_spec.Unbounded_following

let lower_window table (w : Ast.window) : Window_spec.t =
  if w.Ast.base <> None then fail "named windows are outside the subset the oracle check lowers";
  {
    Window_spec.partition_by = List.map (Planner.lower_expr table) w.Ast.partition_by;
    order_by = lower_order table w.Ast.order_by;
    frame =
      Option.map
        (fun (f : Ast.frame) ->
          {
            Window_spec.mode =
              (match f.Ast.mode with
              | `Rows -> Window_spec.Rows
              | `Range -> Window_spec.Range
              | `Groups -> Window_spec.Groups);
            start_bound = lower_bound table f.Ast.start_bound;
            end_bound = lower_bound table f.Ast.end_bound;
            exclusion =
              (match f.Ast.exclusion with
              | Ast.No_others -> Window_spec.Exclude_no_others
              | Ast.Current_row_x -> Window_spec.Exclude_current_row
              | Ast.Group_x -> Window_spec.Exclude_group
              | Ast.Ties_x -> Window_spec.Exclude_ties);
          })
        w.Ast.frame;
  }

let lower_call table (c : Ast.window_call) : Wf.func =
  let expr n =
    match List.nth_opt c.Ast.args n with
    | Some a -> Planner.lower_expr table a
    | None -> fail "%s: missing argument %d" c.Ast.func (n + 1)
  in
  let order = lower_order table c.Ast.arg_order_by in
  let int_arg n = match List.nth_opt c.Ast.args n with Some (Ast.Int_lit v) -> v | _ -> 1 in
  match c.Ast.func with
  | "count" -> Wf.Aggregate { kind = Wf.Count; arg = Some (expr 0); distinct = c.Ast.distinct }
  | "rank" -> Wf.Rank order
  | "percent_rank" -> Wf.Percent_rank order
  | "cume_dist" -> Wf.Cume_dist order
  | "row_number" -> Wf.Row_number order
  | "median" -> Wf.Percentile_disc (0.5, [ Sort_spec.asc (expr 0) ])
  | "percentile_disc" -> (
      match c.Ast.args with
      | [ Ast.Float_lit p ] -> Wf.Percentile_disc (p, order)
      | _ -> fail "percentile_disc expects one fraction literal")
  | ("lead" | "lag") when List.length c.Ast.args <= 2 ->
      let vf = { Wf.arg = expr 0; order; ignore_nulls = c.Ast.ignore_nulls } in
      if c.Ast.func = "lead" then Wf.Lead (int_arg 1, None, vf) else Wf.Lag (int_arg 1, None, vf)
  | f -> fail "window function %S is outside the subset the oracle check lowers" f

(* [(clauses, item names in select order)] for a statement over [table]. *)
let clauses table (q : Ast.query) : Window_plan.clause list * string list =
  if q.Ast.where <> None || q.Ast.windows <> [] || q.Ast.order_by <> [] || q.Ast.limit <> None then
    fail "statement is outside the subset the oracle check lowers";
  let groups = ref [] and names = ref [] in
  List.iter
    (fun (it : Ast.select_item) ->
      match it.Ast.value, it.Ast.alias with
      | `Window w, Some name ->
          if w.Ast.filter <> None then fail "FILTER is outside the subset the oracle check lowers";
          let spec = lower_window table w.Ast.over in
          let item = Wf.make ~name (lower_call table w) in
          names := name :: !names;
          (match List.find_opt (fun (s, _) -> s = spec) !groups with
          | Some (_, items) -> items := item :: !items
          | None -> groups := !groups @ [ (spec, ref [ item ]) ])
      | _ -> fail "every select item must be an aliased window call")
    q.Ast.select;
  ( List.map (fun (spec, items) -> { Window_plan.spec; items = List.rev !items }) !groups,
    List.rev !names )
