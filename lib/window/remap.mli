(** Index remapping between a partition and its filtered representation
    (paper §4.5/§4.7): FILTER clauses, IGNORE NULLS and NULL-skipping
    aggregates drop rows {e before} any tree is built; frame ranges are then
    translated into the filtered index space in O(1) via prefix counts. *)

type t

val create : np:int -> qualifies:(int -> bool) -> t

val all : int -> t
(** Identity remap over [np] rows (no filtering). *)

val footprint_bytes : t -> int
(** Bytes held by the prefix and position arrays (incl. headers) — the
    repo-wide memory-accounting contract. *)

val filtered_count : t -> int

val count_before : t -> int -> int
(** Number of qualifying partition positions [< r]; defined for
    [r ∈ [0, np]]. *)

val qualifies : t -> int -> bool

val position : t -> int -> int
(** Partition position of the [i]-th qualifying row. *)

val map_range : t -> int * int -> int * int
(** Frame range in partition positions → range in filtered positions. *)

val map_bounds : t -> int array -> int -> int
(** [map_bounds t bounds nr] maps the [nr] flat ranges written by
    {!Frame.bounds} in place ({!map_range} on each), drops those that
    became empty and returns how many remain. *)
