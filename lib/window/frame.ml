open Holistic_storage
open Window_spec

type t = {
  np : int;
  start_ : int array;
  end_ : int array;
  peer_start : int array;
  peer_end : int array;
  exclusion : exclusion;
}

let size t = t.np
let start_ t r = t.start_.(r)
let end_ t r = t.end_.(r)
let peer_start t r = t.peer_start.(r)
let peer_end t r = t.peer_end.(r)
let exclusion t = t.exclusion

(* first index in [lo, hi) where [pred] holds; pred must be monotone
   (all-false prefix, all-true suffix) *)
let bs_first pred ~lo ~hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pred mid then hi := mid else lo := mid + 1
  done;
  !lo

let peers table order_by rows =
  let np = Array.length rows in
  let peer_start = Array.make np 0 and peer_end = Array.make np 0 in
  if order_by = [] then begin
    Array.fill peer_end 0 np np;
    (peer_start, peer_end)
  end
  else begin
    let cmp = Sort_spec.fast_comparator table order_by in
    let gstart = ref 0 in
    for r = 1 to np do
      if r = np || cmp rows.(r - 1) rows.(r) <> 0 then begin
        for i = !gstart to r - 1 do
          peer_start.(i) <- !gstart;
          peer_end.(i) <- r
        done;
        gstart := r
      end
    done;
    (peer_start, peer_end)
  end

(* A bound's offset expression is compiled once per [compute], not once per
   row: a per-row [Expr.eval] recompiles it, column lookup by name
   included.  Bounds without an offset never call the result. *)
let rows_offset table = function
  | Preceding e | Following e ->
      let f = Expr.compile table e in
      fun row ->
        (match f row with
        | Value.Int k when k >= 0 -> k
        | Value.Int _ -> invalid_arg "Frame: negative frame offset"
        | _ -> invalid_arg "Frame: ROWS/GROUPS offsets must be non-negative integers")
  | Unbounded_preceding | Current_row | Unbounded_following -> fun _ -> 0

let range_offset table = function
  | Preceding e | Following e ->
      let f = Expr.compile table e in
      fun row ->
        let v = f row in
        if Value.is_null v then invalid_arg "Frame: NULL RANGE offset" else v
  | Unbounded_preceding | Current_row | Unbounded_following -> fun _ -> Value.Null

let compute ?peers:precomputed table ~spec ~rows =
  let np = Array.length rows in
  let peer_start, peer_end =
    match precomputed with Some p -> p | None -> peers table spec.order_by rows
  in
  let frame =
    match spec.frame with
    | Some f -> f
    | None ->
        if spec.order_by = [] then Window_spec.whole_partition
        else range_between Unbounded_preceding Current_row
  in
  (* compiled only for a non-empty partition, as the per-row evaluation
     they replace never ran on an empty one *)
  let compile_bounds compile =
    if np = 0 then (compile table Current_row, compile table Current_row)
    else (compile table frame.start_bound, compile table frame.end_bound)
  in
  let start_ = Array.make np 0 and end_ = Array.make np 0 in
  (match frame.mode with
  | Rows ->
      let start_off, end_off = compile_bounds rows_offset in
      for r = 0 to np - 1 do
        let row = rows.(r) in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Preceding _ -> r - start_off row
          | Current_row -> r
          | Following _ -> r + start_off row
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Preceding _ -> r - end_off row + 1
          | Current_row -> r + 1
          | Following _ -> r + end_off row + 1
          | Unbounded_following -> np)
      done
  | Groups ->
      let start_off, end_off = compile_bounds rows_offset in
      (* group index per row plus group boundary tables *)
      let gidx = Array.make np 0 in
      let code = ref 0 in
      for r = 1 to np - 1 do
        if peer_start.(r) = r then incr code;
        gidx.(r) <- !code
      done;
      let ngroups = if np = 0 then 0 else !code + 1 in
      let gstarts = Array.make (Int.max ngroups 1) 0 and gends = Array.make (Int.max ngroups 1) 0 in
      for r = 0 to np - 1 do
        gstarts.(gidx.(r)) <- peer_start.(r);
        gends.(gidx.(r)) <- peer_end.(r)
      done;
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let g = gidx.(r) in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Preceding _ ->
              let k = start_off row in
              if g - k < 0 then 0 else gstarts.(g - k)
          | Current_row -> peer_start.(r)
          | Following _ ->
              let k = start_off row in
              if g + k >= ngroups then np else gstarts.(g + k)
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Preceding _ ->
              let k = end_off row in
              if g - k < 0 then 0 else gends.(g - k)
          | Current_row -> peer_end.(r)
          | Following _ ->
              let k = end_off row in
              if g + k >= ngroups then np else gends.(g + k)
          | Unbounded_following -> np)
      done
  | Range ->
      let needs_key =
        match frame.start_bound, frame.end_bound with
        | (Preceding _ | Following _), _ | _, (Preceding _ | Following _) -> true
        | _ -> false
      in
      let key =
        match spec.order_by with
        | [ k ] -> Some k
        | _ -> None
      in
      if needs_key && key = None then
        invalid_arg "Frame: RANGE with offsets requires exactly one ORDER BY key";
      (* Key values in partition order; NULL rows occupy a contiguous region
         at one end (by the sort), and offset bounds give them their null
         peer group.  Without a key every row reads as NULL. *)
      let vals, nulls_first, desc =
        match key with
        | None -> ([||], false, false)
        | Some k ->
            let f = Expr.compile table k.Sort_spec.expr in
            let vals = Array.init np (fun r -> f rows.(r)) in
            let nulls_last =
              match k.Sort_spec.nulls, k.Sort_spec.direction with
              | Sort_spec.Nulls_last, _ -> true
              | Sort_spec.Nulls_first, _ -> false
              | Sort_spec.Nulls_default, Sort_spec.Asc -> true
              | Sort_spec.Nulls_default, Sort_spec.Desc -> false
            in
            (vals, not nulls_last, k.Sort_spec.direction = Sort_spec.Desc)
      in
      (* non-null region [nn_lo, nn_hi) *)
      let nn_lo, nn_hi =
        match key with
        | None -> (0, np)
        | Some _ ->
            let nnulls = Array.fold_left (fun acc v -> if Value.is_null v then acc + 1 else acc) 0 vals in
            if nulls_first then (nnulls, np) else (0, np - nnulls)
      in
      let cmpv a b = Value.compare_sql ~nulls_last:true a b in
      (* first non-null position whose key is >= target in frame order
         (i.e. >= for asc, <= for desc) *)
      let first_geq target =
        bs_first
          (fun p -> if desc then cmpv vals.(p) target <= 0 else cmpv vals.(p) target >= 0)
          ~lo:nn_lo ~hi:nn_hi
      in
      (* one past the last non-null position whose key is <= target in frame
         order *)
      let past_leq target =
        bs_first
          (fun p -> if desc then cmpv vals.(p) target < 0 else cmpv vals.(p) target > 0)
          ~lo:nn_lo ~hi:nn_hi
      in
      let start_delta, end_delta = compile_bounds range_offset in
      (* target value for "offset before / after the current value" in frame
         direction: preceding moves against the direction. *)
      let shifted v d ~towards_preceding =
        let back = if desc then not towards_preceding else towards_preceding in
        if back then Value.sub v d else Value.add v d
      in
      for r = 0 to np - 1 do
        let row = rows.(r) in
        let v = match key with None -> Value.Null | Some _ -> vals.(r) in
        let is_null = Value.is_null v in
        start_.(r) <-
          (match frame.start_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_start.(r)
          | Preceding _ ->
              if is_null then peer_start.(r)
              else first_geq (shifted v (start_delta row) ~towards_preceding:true)
          | Following _ ->
              if is_null then peer_start.(r)
              else first_geq (shifted v (start_delta row) ~towards_preceding:false)
          | Unbounded_following -> np);
        end_.(r) <-
          (match frame.end_bound with
          | Unbounded_preceding -> 0
          | Current_row -> peer_end.(r)
          | Preceding _ ->
              if is_null then peer_end.(r)
              else past_leq (shifted v (end_delta row) ~towards_preceding:true)
          | Following _ ->
              if is_null then peer_end.(r)
              else past_leq (shifted v (end_delta row) ~towards_preceding:false)
          | Unbounded_following -> np)
      done);
  (* clamp and normalise *)
  for r = 0 to np - 1 do
    let s = Int.max 0 (Int.min start_.(r) np) and e = Int.max 0 (Int.min end_.(r) np) in
    start_.(r) <- s;
    end_.(r) <- (if e < s then s else e)
  done;
  { np; start_; end_; peer_start; peer_end; exclusion = frame.exclusion }

let ranges t r =
  let s = t.start_.(r) and e = t.end_.(r) in
  if s >= e then [||]
  else begin
    (* holes carved out of [s, e) *)
    let holes =
      match t.exclusion with
      | Exclude_no_others -> []
      | Exclude_current_row -> [ (r, r + 1) ]
      | Exclude_group -> [ (t.peer_start.(r), t.peer_end.(r)) ]
      | Exclude_ties -> [ (t.peer_start.(r), r); (r + 1, t.peer_end.(r)) ]
    in
    let holes =
      List.filter_map
        (fun (a, b) ->
          let a = Int.max a s and b = Int.min b e in
          if a < b then Some (a, b) else None)
        holes
    in
    let pieces = ref [] in
    let pos = ref s in
    List.iter
      (fun (a, b) ->
        if a > !pos then pieces := (!pos, a) :: !pieces;
        pos := Int.max !pos b)
      holes;
    if !pos < e then pieces := (!pos, e) :: !pieces;
    Array.of_list (List.rev !pieces)
  end

let covered t r = Array.fold_left (fun acc (a, b) -> acc + (b - a)) 0 (ranges t r)
