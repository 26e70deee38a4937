(** Merge sort trees with relaxed fractional cascading (paper §4 and §5.1).

    A merge sort tree over an integer array [a] of length [n] keeps, for every
    tree level [j], the array re-sorted within consecutive runs of length
    [fanout^j]; the top level is one fully sorted run. The structure is the
    set of intermediate results of an [fanout]-way merge sort, kept instead of
    discarded, and is built in O(n log n).

    Two query families are supported, both O(log n) per query:

    - {!count}: how many elements with {e position} in a range have a
      {e value} below a threshold. This evaluates windowed COUNT DISTINCT
      (over prev-occurrence indices, §4.2) and windowed rank functions (over
      dense order codes, §4.4).
    - {!select}: the (m+1)-th element, in base order, whose {e value} falls
      into given ranges. Over a permutation array (§4.5) this evaluates
      windowed percentiles, value functions and LEAD/LAG.

    Queries run a single binary search on the top level; sampled merge-cursor
    states recorded during construction (every [sample]-th output position,
    §4.2 "annotate only every kth element") narrow every lower-level search
    to a window of at most [sample] elements, the relaxed fractional
    cascading. [~sample:0] disables cascading entirely, yielding the
    O(n (log n)²) "segment tree with sorted lists" competitor of Table 1 and
    the ablation of Fig. 13's sampling axis.

    The structure is immutable after construction and may be queried from any
    number of domains concurrently. *)

type t

val create :
  ?pool:Holistic_parallel.Task_pool.t ->
  ?fanout:int ->
  ?sample:int ->
  ?track_payload:bool ->
  int array ->
  t
(** [create a] builds the tree bottom-up with [fanout]-way merges
    (default 32), recording cascading cursor states every [sample] elements
    (default 32, the paper's f = k = 32; [0] disables cascading). Runs of
    each level are merged as independent tasks on [pool] (default: the
    process pool). [track_payload] additionally records, per level, the base
    position each element came from, which {!Annotated_mst} needs to attach
    aggregate annotations. The input array is copied. *)

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

val base : t -> int array
(** The level-0 copy of the input. Do not mutate. *)

val count : t -> lo:int -> hi:int -> less_than:int -> int
(** [count t ~lo ~hi ~less_than] is [|{i ∈ [lo,hi) : a.(i) < less_than}|].
    Position bounds are clamped to [\[0, n\]]. *)

val count_bounds : t -> bounds:int array -> nr:int -> less_than:int -> int
(** Sum of {!count} over [nr] (disjoint) position ranges given flat:
    range [i] is [\[bounds.(2i), bounds.(2i+1))] — a frame with up to two
    exclusion holes (§4.7). A caller refilling one [bounds] array per row
    probes without allocating. *)

val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int
(** {!count_bounds} over a tuple array, for tests and benchmarks. *)

val select : t -> ranges:(int * int) array -> nth:int -> int
(** [select t ~ranges ~nth] is the value of the (nth+1)-th element, scanning
    base positions ascending, whose {e value} lies in one of the half-open
    value [ranges] (which must be disjoint and ascending). Over a permutation
    array, base order is "ascending by the function's ORDER BY" and values
    are original row positions, so this returns the original position of the
    (nth+1)-th smallest row inside the frame described by [ranges].
    @raise Invalid_argument if fewer than [nth + 1] elements qualify. *)

val select_bounds : t -> bounds:int array -> nr:int -> nth:int -> int
(** {!select} over [nr] value ranges given flat, as in {!count_bounds}.
    The descent stops at level 1 and scans that node's leaves. Allocates
    nothing for one range. *)

val count_value_ranges : t -> ranges:(int * int) array -> int
(** Number of elements whose value lies in the given ranges — the qualifying
    population that {!select} draws from. *)

val iter_covered :
  t -> lo:int -> hi:int -> less_than:int -> (level:int -> base:int -> prefix:int -> unit) -> unit
(** Decomposes the position range [\[lo, hi)] into the same sorted runs a
    {!count} query uses and reports, for each, the run's absolute start
    offset in its level array and the number [prefix] of its elements below
    the threshold. {!Annotated_mst} combines per-run prefix aggregates from
    exactly these [(level, base, prefix)] triples (§4.3). *)

val payload_levels : t -> int array array
(** Per level, the base position each element originated from. Only
    available when built with [~track_payload:true].
    @raise Invalid_argument otherwise. *)

val levels : t -> int array array
(** The raw level arrays (level 0 = base). Do not mutate. *)

type internals = {
  int_levels : int array array;
  int_cursors : int array array;
  strides : int array;  (** fanout^j per level *)
  states_per_run : int array;  (** sampled cursor states per run, per upper level *)
}

val internals : t -> internals
(** Raw representation, consumed by {!Mst_compact} for storage-width
    conversion. Not a stable API; do not mutate. *)

type stats = {
  level_elements : int;  (** total elements across all level arrays *)
  cursor_elements : int; (** total recorded cursor-state integers *)
  payload_elements : int;
  heap_bytes : int;      (** total bytes at 8 bytes per element *)
}

val stats : t -> stats

val footprint_bytes : t -> int
(** Bytes held by the built tree (8 per stored element; array headers,
    a negligible constant, excluded) — the repo-wide memory-accounting
    contract. *)

val element_count_formula : n:int -> fanout:int -> sample:int -> int
(** The paper's closed-form element count (§5.1):
    [⌈log_f n⌉·n + (⌈log_f n⌉ − 1)·n·f/k]; used for the §6.6 memory table at
    sizes too large to materialise. *)
