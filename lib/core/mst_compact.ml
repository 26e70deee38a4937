(* The 32-bit instantiation of the merge sort tree template (§5.1),
   specialised on int32 bigarrays. {!create} builds *directly* into the
   narrow buffers — no 64-bit tree is materialised, so peak memory is the
   compact tree alone and build-phase traffic is halved. The historical
   build-then-convert path ({!of_mst}) is kept for comparison benchmarks. *)

module T = Mst_template.Make (Mst_storage.Int32s)

type t = T.t

let create = T.create
let create_stream = T.create_stream

let of_mst mst =
  let ir = Mst.internals mst in
  T.of_int_internals ~msg:"Mst_compact.of_mst: value exceeds 32-bit range" ~n:(Mst.length mst)
    ~fanout:(Mst.fanout mst) ~sample:(Mst.sample mst) ~levels:ir.Mst.int_levels
    ~cursors:ir.Mst.int_cursors ~stride:ir.Mst.strides ~spr:ir.Mst.states_per_run

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
