(* Automatic storage-width selection for merge sort trees (§5.1).

   The window operator rank-encodes every MST operand into a dense integer
   domain bounded by the partition size, so the narrowest fitting
   instantiation is known before the build: 16-bit for partitions under
   2^16 rows, 32-bit under 2^31, 64-bit otherwise. This module is the small
   dispatch the operator builds through; [Force] is the benchmarking knob
   (it widens as needed, so a forced narrow width on oversized data still
   yields correct results instead of raising mid-query). *)

type width = W16 | W32 | W64
type choice = Auto | Force of width
type t = T16 of Mst16.t | T32 of Mst_compact.t | T64 of Mst.t

let bits = function W16 -> 16 | W32 -> 32 | W64 -> 64

let rank = function W16 -> 0 | W32 -> 1 | W64 -> 2

let widen a b = if rank a >= rank b then a else b

let fits ~n ~min_value ~max_value = function
  | W16 -> min_value >= 0 && max_value <= 0xFFFF && n <= 0xFFFF
  | W32 ->
      min_value >= Int32.to_int Int32.min_int
      && max_value <= Int32.to_int Int32.max_int
      && n <= Int32.to_int Int32.max_int
  | W64 -> true

let width_for ~n ~min_value ~max_value =
  if fits ~n ~min_value ~max_value W16 then W16
  else if fits ~n ~min_value ~max_value W32 then W32
  else W64

let value_bounds a =
  let mn = ref 0 and mx = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if v < !mn then mn := v;
    if v > !mx then mx := v
  done;
  (!mn, !mx)

let create ?pool ?fanout ?sample ?(choice = Auto) a =
  let n = Array.length a in
  let min_value, max_value = value_bounds a in
  let fit = width_for ~n ~min_value ~max_value in
  let w = match choice with Auto -> fit | Force w -> widen w fit in
  match w with
  | W16 -> T16 (Mst16.create ?pool ?fanout ?sample a)
  | W32 -> T32 (Mst_compact.create ?pool ?fanout ?sample a)
  | W64 -> T64 (Mst.create ?pool ?fanout ?sample a)

let create_stream ?fanout ?sample ?(choice = Auto) ~n ~min_value ~max_value ~fill () =
  let fit = width_for ~n ~min_value ~max_value in
  let w = match choice with Auto -> fit | Force w -> widen w fit in
  match w with
  | W16 -> T16 (Mst16.create_stream ?fanout ?sample ~n ~fill ())
  | W32 -> T32 (Mst_compact.create_stream ?fanout ?sample ~n ~fill ())
  | W64 -> T64 (Mst.create_stream ?fanout ?sample ~n ~fill ())

let width = function T16 _ -> W16 | T32 _ -> W32 | T64 _ -> W64

(* Incremental append: maintain [t] for the grown operand [a] when the
   width [create] would pick is unchanged (otherwise the old narrow levels
   cannot represent the new operand — rebuild at the new width) and the
   tree was built with the same fanout/sample the caller would use. The
   flag reports whether maintenance happened (false → a full rebuild ran),
   for the cache's maintained/rebuilt provenance counters. *)
let try_extend ?(fanout = 32) ?(sample = 32) ?(choice = Auto) t a =
  let n = Array.length a in
  let min_value, max_value = value_bounds a in
  let fit = width_for ~n ~min_value ~max_value in
  let target = match choice with Auto -> fit | Force w -> widen w fit in
  let same_knobs =
    match t with
    | T16 t -> Mst16.fanout t = fanout && Mst16.sample t = sample
    | T32 t -> Mst_compact.fanout t = fanout && Mst_compact.sample t = sample
    | T64 t -> Mst.fanout t = fanout && Mst.sample t = sample
  in
  if (not same_knobs) || rank target <> rank (width t) then None
  else
    match t with
    | T16 t -> Option.map (fun t -> T16 t) (Mst16.append t a)
    | T32 t -> Option.map (fun t -> T32 t) (Mst_compact.append t a)
    | T64 t -> Option.map (fun t -> T64 t) (Mst.append t a)

let extend ?pool ?(fanout = 32) ?(sample = 32) ?(choice = Auto) t a =
  match try_extend ~fanout ~sample ~choice t a with
  | Some t' -> (t', true)
  | None -> (create ?pool ~fanout ~sample ~choice a, false)

let length = function
  | T16 t -> Mst16.length t
  | T32 t -> Mst_compact.length t
  | T64 t -> Mst.length t

let count t ~lo ~hi ~less_than =
  match t with
  | T16 t -> Mst16.count t ~lo ~hi ~less_than
  | T32 t -> Mst_compact.count t ~lo ~hi ~less_than
  | T64 t -> Mst.count t ~lo ~hi ~less_than

let count_bounds t ~bounds ~nr ~less_than =
  match t with
  | T16 t -> Mst16.count_bounds t ~bounds ~nr ~less_than
  | T32 t -> Mst_compact.count_bounds t ~bounds ~nr ~less_than
  | T64 t -> Mst.count_bounds t ~bounds ~nr ~less_than

let count_ranges t ~ranges ~less_than =
  match t with
  | T16 t -> Mst16.count_ranges t ~ranges ~less_than
  | T32 t -> Mst_compact.count_ranges t ~ranges ~less_than
  | T64 t -> Mst.count_ranges t ~ranges ~less_than

let count_value_ranges t ~ranges =
  match t with
  | T16 t -> Mst16.count_value_ranges t ~ranges
  | T32 t -> Mst_compact.count_value_ranges t ~ranges
  | T64 t -> Mst.count_value_ranges t ~ranges

let select_bounds t ~bounds ~nr ~nth =
  match t with
  | T16 t -> Mst16.select_bounds t ~bounds ~nr ~nth
  | T32 t -> Mst_compact.select_bounds t ~bounds ~nr ~nth
  | T64 t -> Mst.select_bounds t ~bounds ~nr ~nth

let select t ~ranges ~nth =
  match t with
  | T16 t -> Mst16.select t ~ranges ~nth
  | T32 t -> Mst_compact.select t ~ranges ~nth
  | T64 t -> Mst.select t ~ranges ~nth

let heap_bytes = function
  | T16 t -> Mst16.heap_bytes t
  | T32 t -> Mst_compact.heap_bytes t
  | T64 t -> (Mst.stats t).Mst.heap_bytes

let footprint_bytes = heap_bytes
