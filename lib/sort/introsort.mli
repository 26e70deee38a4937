(** Introsort with 3-way partitioning over integer arrays.

    The 3-way (fat-pivot) partitioning is not an optimisation detail: the
    paper (§5.3) reports that 2-way quicksort degenerates to O(n²) on the
    duplicate-heavy arrays produced by the prev-occurrence preprocessing
    (most entries are 0 on low-duplicate columns), and fixed their system the
    same way. Recursion depth is bounded by 2·⌊log₂ n⌋ with a heapsort
    fallback, so the worst case is O(n log n) regardless of input. *)

val sort : int array -> unit
(** Sorts the whole array ascending. *)

val sort_range : int array -> lo:int -> hi:int -> unit
(** Sorts the half-open segment [\[lo, hi)] ascending. *)

val sort_pairs : key:int array -> payload:int array -> unit
(** Sorts both arrays simultaneously by [(key, payload)] lexicographically
    ascending. When [payload] holds original positions this is exactly the
    stable sort of Algorithm 1. Arrays must have equal length. *)

val sort_pairs_range : key:int array -> payload:int array -> lo:int -> hi:int -> unit

val sort_pairs_tie_range :
  key:int array -> payload:int array -> tie:(int -> int -> int) -> lo:int -> hi:int -> unit
(** Sorts the segment [\[lo, hi)] of both arrays by [key] ascending, breaking
    key ties with [tie] applied to the payload {e values}. This is the
    multi-word normalized-key run sort: the leading key word lives in [key]
    (unboxed int compares), and [tie] descends into trailing key words and the
    residual comparator only on leading-word collisions. [tie] must be a
    strict total order (end the chain with a row-id compare) for the result to
    be deterministic. *)

val sort_float_pairs : key:float array -> payload:int array -> unit
(** {!sort_pairs} for float keys (ascending in [Float.compare]'s order, so
    NaNs first and [-0.0] tied with [0.0]; ties broken by payload): the
    unboxed fast path for single-float-column ORDER BY preprocessing. *)

val sort_by : int array -> cmp:(int -> int -> int) -> unit
(** Sorts the array's elements by an arbitrary total order on elements. Used
    by preprocessing passes whose keys are not plain integers. Not stable;
    callers needing stability must break ties in [cmp]. *)

val sort_by_range : int array -> cmp:(int -> int -> int) -> lo:int -> hi:int -> unit
(** {!sort_by} restricted to the half-open segment [\[lo, hi)]: the
    partial-sort primitive for re-ordering an inherited permutation within
    partition boundaries. *)

val sort_indices_by : int -> cmp:(int -> int -> int) -> int array
(** [sort_indices_by n ~cmp] is the permutation [\[|0..n-1|\]] sorted stably
    by [cmp] on indices (ties keep ascending index order). *)
