(* The 16-bit instantiation of the merge sort tree template (§5.1),
   specialised on int16_unsigned bigarrays: a quarter of the 64-bit cache
   footprint, and — unlike int32 — reads come back as immediate ints, so
   there is no boxing anywhere on the probe path. Fits any operand whose
   dense domain (and length) stays below 2^16, which covers every
   per-partition rank encoding of partitions up to 65535 rows. *)

module T = Mst_template.Make (Mst_storage.Int16u)

type t = T.t

let create = T.create
let create_stream = T.create_stream
let append = T.append
let length = T.length
let fanout = T.fanout
let sample = T.sample
let count = T.count
let count_ranges = T.count_ranges
let count_bounds = T.count_bounds
let count_value_ranges = T.count_value_ranges
let select = T.select
let select_bounds = T.select_bounds

type stats = T.stats = {
  level_elements : int;
  cursor_elements : int;
  payload_elements : int;
  heap_bytes : int;
}

let stats = T.stats
let heap_bytes t = (T.stats t).T.heap_bytes
let footprint_bytes = T.footprint_bytes
