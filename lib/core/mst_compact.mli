(** 32-bit merge sort trees (paper §5.1).

    The paper builds its trees with 32-bit integers whenever the partition
    fits, halving memory and easing memory-bandwidth pressure. This is the
    int32-bigarray instantiation of the per-width template
    ({!Mst_template}): identical build and query logic to {!Mst}, narrow
    storage. {!create} builds {e directly} into the narrow level/cursor
    buffers — no 64-bit tree is materialised and peak memory is the compact
    tree alone. The [mst-width] benchmark measures the space/time trade-off
    against the 64- and 16-bit instantiations. *)

type t

val create :
  ?pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?track_payload:bool ->
  int array ->
  t
(** Direct narrow-width construction; same contract as {!Mst.create}.
    @raise Invalid_argument if a value (or the array length) exceeds the
    32-bit storage range. *)

val of_mst : Mst.t -> t
(** The historical build-then-convert path: re-encode an already-built
    64-bit tree. Peak memory is the {e sum} of both trees; kept as the
    baseline the [mst-width] benchmark compares direct construction
    against.
    @raise Invalid_argument if any stored value falls outside int32 range. *)

val create_stream : ?fanout:int -> ?sample:int -> n:int -> fill:(int array -> pos:int -> len:int -> unit) -> unit -> t
(** Out-of-core construction: streams the [n] leaves in chunks through
    [fill buf ~pos ~len] (write values for positions [pos..pos+len-1]
    into [buf.(0..len-1)]) and merges each level through storage-backed
    write-behind buffers — no full operand array and no wide shadow
    buffers are ever materialised. Sequential. Bit-identical to
    [create] of the same leaves with the same knobs.
    @raise Invalid_argument on values outside the storage range. *)

val append : t -> int array -> t option
(** [append t a] incrementally maintains the tree for the grown leaf array
    [a] (whose first [length t] elements must equal the existing leaves) by
    run-stacking: runs fully inside the old prefix are blitted, only runs
    overlapping the appended suffix are re-merged. Bit-identical to
    [create a]. [None] when the prefix changed, payloads are tracked, or
    the new operand overflows the storage width (rebuild instead). *)

val length : t -> int
val fanout : t -> int
val sample : t -> int

val count : t -> lo:int -> hi:int -> less_than:int -> int
(** Same contract as {!Mst.count}. *)

val count_bounds : t -> bounds:int array -> nr:int -> less_than:int -> int
(** Same contract as {!Mst.count_bounds}. *)

val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int

val select : t -> ranges:(int * int) array -> nth:int -> int
(** Same contract as {!Mst.select}. *)

val select_bounds : t -> bounds:int array -> nr:int -> nth:int -> int
(** Same contract as {!Mst.select_bounds}. *)

val count_value_ranges : t -> ranges:(int * int) array -> int

type stats = {
  level_elements : int;
  cursor_elements : int;
  payload_elements : int;
  heap_bytes : int;  (** total bytes at 4 bytes per element *)
}

val stats : t -> stats

val heap_bytes : t -> int
(** Bytes held by the compact representation (4 per element). *)

val footprint_bytes : t -> int
(** Alias of {!heap_bytes}: the repo-wide memory-accounting contract.
    The buffers are bigarrays — malloc'd outside the OCaml heap. *)
