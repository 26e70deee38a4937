(** Automatic storage-width selection for merge sort trees (§5.1).

    Window-operator MST operands are rank encodings: dense integers bounded
    by the partition size. The narrowest fitting width is therefore known
    before the build, and building narrow directly (see {!Mst_compact},
    {!Mst16}) halves or quarters both the tree's footprint and the
    build-phase memory traffic. This module is the dispatch the operator
    builds and probes through. *)

type width = W16 | W32 | W64

type choice =
  | Auto  (** narrowest width that fits the operand (the default) *)
  | Force of width
      (** benchmarking knob: use the given width, widened just enough if the
          operand does not fit it (a forced [W16] over 10^6 rows still
          computes correct results at the narrowest fitting width) *)

type t = T16 of Mst16.t | T32 of Mst_compact.t | T64 of Mst.t

val bits : width -> int

val width_for : n:int -> min_value:int -> max_value:int -> width
(** The §5.1 selection rule: narrowest width whose value range covers
    [\[min_value, max_value\]] {e and} whose count range covers [n] (cursor
    states count elements of a run, so lengths must fit too). *)

val create :
  ?pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?choice:choice ->
  int array ->
  t
(** Builds at the width selected by [choice] (default [Auto]) after a
    single scan for the operand's value bounds. *)

val create_stream :
  ?fanout:int ->
  ?sample:int ->
  ?choice:choice ->
  n:int ->
  min_value:int ->
  max_value:int ->
  fill:(int array -> pos:int -> len:int -> unit) ->
  unit ->
  t
(** Out-of-core construction ({!Mst.create_stream} under width
    selection): the operand is streamed in chunks through [fill], so its
    value bounds cannot be scanned and must be supplied. To reproduce
    {!create}'s width choice exactly, clamp the scanned bounds into the
    zero-origin [create] uses: [min_value = min real_min 0],
    [max_value = max real_max 0]. *)

val try_extend : ?fanout:int -> ?sample:int -> ?choice:choice -> t -> int array -> t option
(** Maintenance-only {!extend}: [None] — with no rebuild attempted — when
    run-stacking cannot apply (width change, knob mismatch, prefix
    mismatch, shrink), for callers that fall back through their own build
    path (the {!Build_cache} [maintain] callbacks). *)

val extend :
  ?pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?choice:choice ->
  t ->
  int array ->
  t * bool
(** [extend t a] maintains [t] incrementally for the grown operand [a]
    (run-stacking append; see {!Mst.append}) when the selected width,
    fanout and sample are unchanged and [a] still starts with [t]'s
    leaves; otherwise builds from scratch. The flag is [true] iff the tree
    was maintained rather than rebuilt. Either way the result equals
    [create a]. *)

val width : t -> width
val length : t -> int
val count : t -> lo:int -> hi:int -> less_than:int -> int

val count_bounds : t -> bounds:int array -> nr:int -> less_than:int -> int
(** {!Mst.count_bounds} at the tree's width: the evaluators' per-row entry
    point, fed a task-owned [bounds] array. *)

val select_bounds : t -> bounds:int array -> nr:int -> nth:int -> int
(** {!Mst.select_bounds} at the tree's width. *)

val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int
val count_value_ranges : t -> ranges:(int * int) array -> int
val select : t -> ranges:(int * int) array -> nth:int -> int
val heap_bytes : t -> int

val footprint_bytes : t -> int
(** Alias of {!heap_bytes}: the repo-wide memory-accounting contract
    (element bytes at the selected width). *)
