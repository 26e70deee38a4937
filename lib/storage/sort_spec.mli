(** ORDER BY specifications and compiled row comparators. *)

type direction = Asc | Desc

type nulls_order =
  | Nulls_default  (** SQL default: NULLS LAST for ASC, NULLS FIRST for DESC *)
  | Nulls_first
  | Nulls_last

type key = { expr : Expr.t; direction : direction; nulls : nulls_order }

type t = key list

val asc : ?nulls:nulls_order -> Expr.t -> key
val desc : ?nulls:nulls_order -> Expr.t -> key

val key_to_string : key -> string

val to_string : t -> string
(** SQL-ish rendering ("x desc nulls first, y") for plans and traces. *)

val nulls_last_flag : key -> bool
(** Resolved NULL placement: [Nulls_default] means LAST for ASC, FIRST for
    DESC (the SQL default). *)

val comparator : Table.t -> t -> int -> int -> int
(** [comparator table spec] is a compiled total preorder on row indices:
    keys are evaluated once per comparison with column references resolved
    up front. *)

val key_comparator : Table.t -> key -> int -> int -> int
(** The single-key building block of {!comparator}: direction and NULL
    placement applied to one compiled expression. Exposed so multi-table
    sort pipelines (the key codec's residual) can mix keys resolved against
    different tables. *)

val plain_key_comparator : Table.t -> key -> (int -> int -> int) option
(** When the key is a plain NULL-free Ints, Dates or Floats column, a
    comparator on its raw array ([Int.compare] or [Float.compare], the
    arguments swapped for DESC) with the same sign as {!key_comparator};
    [None] for any other key. *)

val fast_comparator : Table.t -> t -> int -> int -> int
(** {!comparator}'s sign on every pair of rows, for the engine's own sorts
    and peer scans: plain-column keys ({!plain_key_comparator}) compare raw
    arrays with no boxed value per comparison, and any other key uses
    {!key_comparator}. *)

val single_int_key : Table.t -> t -> int array option
(** When the spec is a single ascending, plain integer-kinded column
    without NULLs, its raw key array — the fast path that skips
    comparator-based preprocessing. Any [nulls_order] spelling matches: on
    a NULL-free column they are all equivalent. *)

type fast_key = Int_key of int array * bool | Float_key of float array * bool
(** Raw key array plus a descending flag. *)

val fast_key : Table.t -> t -> fast_key option
(** Like {!single_int_key} but also matching descending order and float
    columns: lets preprocessing compare unboxed keys instead of evaluating
    expressions per comparison. NULL-bearing columns never match. *)
