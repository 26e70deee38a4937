(* Storage backends for the per-integer-width merge sort tree template
   (paper §5.1). Every MST operand is rank-encoded into a dense integer
   domain, so the tree can be instantiated at the narrowest width that fits:
   the same build/query logic runs over 64-bit [int array]s, 32-bit [int32]
   bigarrays or 16-bit [int16_unsigned] bigarrays, quartering the cache
   footprint of the bandwidth-bound query phase on small partitions.

   Each backend also owns the probe kernels: the top-level [lower_bound],
   the cascade step [child_pos] and the level-1 leaf scans. This toolchain
   has no flambda, so every call through the functor argument is a real
   indirect call and nothing the template calls per element is inlined.
   One call per [lower_bound] amortises over a full-run search, but not
   over the cascaded windows of a descent, which hold fewer than [sample]
   elements and often just 0-2: there a separate cursor [get] plus a
   search call was most of the cost. [child_pos] therefore does the cursor
   read and the window search in one loop-local body, one call per child.
   Both searches are branch-free (the compare feeds an add through
   [Bool.to_int]): the outcome of each halving is data-dependent, and a
   mispredicted branch costs more than the compare it decides. *)

(* [v] in [\[lo, hi)] as one unsigned compare (lo <= hi): [v - lo] and
   [hi - lo] taken modulo 2^63, compared with the sign bit flipped. *)
let[@inline] in_range v lo hi = v - lo + min_int < hi - lo + min_int

module type S = sig
  type buf

  val name : string
  (** Name of the instantiation using this storage, for error messages. *)

  val width_bits : int
  val bytes_per_element : int

  val min_value : int
  val max_value : int
  (** Inclusive range of storable values. Tree lengths must also stay within
      [max_value]: merge-cursor states count elements of a run. *)

  val create : int -> buf
  (** Contents unspecified; every slot is written before it is read. *)

  val length : buf -> int
  val get : buf -> int -> int
  val set : buf -> int -> int -> unit

  val lower_bound : buf -> lo:int -> hi:int -> int -> int
  (** Position of the first element in the sorted segment [\[lo, hi)] that is
      not less than the probe (all comparisons in the native [int] domain). *)

  val child_pos : buf -> buf -> slot:int -> slack:int -> v:int -> c:int -> base:int -> len:int -> int
  (** [child_pos below cur ~slot ~slack ~v ~c ~base ~len] is one cascade
      step of a descent (§4.2): the position of probe [v] inside child [c]
      of a node, the sorted run [\[base, base + len)] of [below], relative
      to [base]. The node's sampled cursor state for the probe starts at
      [cur.(slot)] and its entry [c] bounds the answer from below; [slack]
      (the probe's distance past that sample point) bounds the window
      searched above it. [slot < 0] marks an uncascaded tree: the whole
      child run is searched, and [slack] must then be at least [len]. *)

  val leaf_count : buf -> lo:int -> hi:int -> less_than:int -> int
  (** Number of elements of [\[lo, hi)] below [less_than]: the level-1
      finish of a count, where every child is a single leaf. *)

  val leaf_select : buf -> base:int -> vlo:int -> vhi:int -> nth:int -> int
  (** The (nth+1)-th element at or after [base] whose value lies in
      [\[vlo, vhi)], which must exist: the level-1 finish of a select (the
      shape of DuckDB's [MergeSortTree::SelectNth] leaf scan). *)

  val leaf_select_bounds : buf -> base:int -> bounds:int array -> nr:int -> nth:int -> int
  (** {!leaf_select} over the [nr] disjoint value ranges
      [\[bounds.(2i), bounds.(2i+1))]. *)

  val of_int_array : msg:string -> int array -> buf
  (** Copy with range validation.
      @raise Invalid_argument [msg] if an element does not fit the width. *)

  (* The build phase merges through plain [int array] views so its inner
     loop stays monomorphic (one bulk call per run chunk instead of one
     functor-indirected [get]/[set] per element). Word-width storage exposes
     its underlying array directly; narrow widths are staged through scratch
     with the two blits below. *)

  val as_ints : buf -> int array option
  (** The underlying array when the representation {e is} an [int array]
      (writes through it are visible); [None] for narrow widths. *)

  val blit_to_ints : buf -> pos:int -> int array -> dst_pos:int -> len:int -> unit
  (** Widening bulk copy out of the buffer. *)

  val blit_from_ints : int array -> pos:int -> buf -> dst_pos:int -> len:int -> unit
  (** Narrowing bulk copy into the buffer, {e without} range checks: the
      build only narrows values that entered through the validated
      {!of_int_array} base level (or run-length-bounded cursor counts), so
      they are known to fit. *)
end

(* ------------------------------------------------------------------ *)
(* 64-bit: plain [int array], the fully general width                   *)
(* ------------------------------------------------------------------ *)

module Int63 : S with type buf = int array = struct
  type buf = int array

  let name = "Mst"
  let width_bits = 64
  let bytes_per_element = 8
  let min_value = min_int
  let max_value = max_int
  let create n = Array.make n 0
  let length = Array.length
  let get = Array.unsafe_get
  let set = Array.unsafe_set

  let lower_bound (a : buf) ~lo ~hi v =
    if hi <= lo then lo
    else begin
      (* halve the segment without a branch on the compare *)
      let b = ref lo and w = ref (hi - lo) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Array.unsafe_get a (!b + half) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Array.unsafe_get a !b < v)
    end

  let child_pos (below : buf) (cur : buf) ~slot ~slack ~v ~c ~base ~len =
    let off = if slot < 0 then 0 else Array.unsafe_get cur (slot + c) in
    let w = ref (Int.min slack (len - off)) in
    if !w = 0 then off
    else begin
      let b = ref (base + off) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Array.unsafe_get below (!b + half) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Array.unsafe_get below !b < v) - base
    end

  let leaf_count (a : buf) ~lo ~hi ~less_than =
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + Bool.to_int (Array.unsafe_get a i < less_than)
    done;
    !acc

  let leaf_select (a : buf) ~base ~vlo ~vhi ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      m := !m - Bool.to_int (in_range (Array.unsafe_get a !i) vlo vhi);
      incr i
    done;
    Array.unsafe_get a (!i - 1)

  let leaf_select_bounds (a : buf) ~base ~bounds ~nr ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      let v = Array.unsafe_get a !i in
      for r = 0 to nr - 1 do
        m :=
          !m
          - Bool.to_int
              (in_range v (Array.unsafe_get bounds (2 * r)) (Array.unsafe_get bounds ((2 * r) + 1)))
      done;
      incr i
    done;
    Array.unsafe_get a (!i - 1)
  let of_int_array ~msg:_ a = Array.copy a
  let as_ints a = Some a
  let blit_to_ints a ~pos dst ~dst_pos ~len = Array.blit a pos dst dst_pos len
  let blit_from_ints src ~pos a ~dst_pos ~len = Array.blit src pos a dst_pos len
end

(* ------------------------------------------------------------------ *)
(* 32-bit: int32 bigarray                                              *)
(* ------------------------------------------------------------------ *)

module Int32s : S with type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t =
struct
  type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let name = "Mst_compact"
  let width_bits = 32
  let bytes_per_element = 4
  let min_value = Int32.to_int Int32.min_int
  let max_value = Int32.to_int Int32.max_int
  let create n = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
  let length = Bigarray.Array1.dim
  let get (a : buf) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
  let set (a : buf) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

  let lower_bound (a : buf) ~lo ~hi v =
    if hi <= lo then lo
    else begin
      (* halve the segment without a branch on the compare *)
      let b = ref lo and w = ref (hi - lo) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Int32.to_int (Bigarray.Array1.unsafe_get a (!b + half)) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Int32.to_int (Bigarray.Array1.unsafe_get a !b) < v)
    end

  let child_pos (below : buf) (cur : buf) ~slot ~slack ~v ~c ~base ~len =
    let off = if slot < 0 then 0 else Int32.to_int (Bigarray.Array1.unsafe_get cur (slot + c)) in
    let w = ref (Int.min slack (len - off)) in
    if !w = 0 then off
    else begin
      let b = ref (base + off) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Int32.to_int (Bigarray.Array1.unsafe_get below (!b + half)) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Int32.to_int (Bigarray.Array1.unsafe_get below !b) < v) - base
    end

  let leaf_count (a : buf) ~lo ~hi ~less_than =
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + Bool.to_int (Int32.to_int (Bigarray.Array1.unsafe_get a i) < less_than)
    done;
    !acc

  let leaf_select (a : buf) ~base ~vlo ~vhi ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      m := !m - Bool.to_int (in_range (Int32.to_int (Bigarray.Array1.unsafe_get a !i)) vlo vhi);
      incr i
    done;
    Int32.to_int (Bigarray.Array1.unsafe_get a (!i - 1))

  let leaf_select_bounds (a : buf) ~base ~bounds ~nr ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      let v = Int32.to_int (Bigarray.Array1.unsafe_get a !i) in
      for r = 0 to nr - 1 do
        m :=
          !m
          - Bool.to_int
              (in_range v (Array.unsafe_get bounds (2 * r)) (Array.unsafe_get bounds ((2 * r) + 1)))
      done;
      incr i
    done;
    Int32.to_int (Bigarray.Array1.unsafe_get a (!i - 1))

  let of_int_array ~msg src =
    let n = Array.length src in
    let a = create n in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get src i in
      if v < min_value || v > max_value then invalid_arg msg;
      set a i v
    done;
    a

  let as_ints _ = None

  let blit_to_ints (a : buf) ~pos dst ~dst_pos ~len =
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i) (Int32.to_int (Bigarray.Array1.unsafe_get a (pos + i)))
    done

  let blit_from_ints src ~pos (a : buf) ~dst_pos ~len =
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set a (dst_pos + i) (Int32.of_int (Array.unsafe_get src (pos + i)))
    done
end

(* ------------------------------------------------------------------ *)
(* 16-bit: int16_unsigned bigarray (reads come back as immediate ints)  *)
(* ------------------------------------------------------------------ *)

module Int16u : S with type buf = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t =
struct
  type buf = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  let name = "Mst16"
  let width_bits = 16
  let bytes_per_element = 2
  let min_value = 0
  let max_value = 0xFFFF
  let create n = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n
  let length = Bigarray.Array1.dim
  let get (a : buf) i = Bigarray.Array1.unsafe_get a i
  let set (a : buf) i v = Bigarray.Array1.unsafe_set a i v

  let lower_bound (a : buf) ~lo ~hi v =
    if hi <= lo then lo
    else begin
      (* halve the segment without a branch on the compare *)
      let b = ref lo and w = ref (hi - lo) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Bigarray.Array1.unsafe_get a (!b + half) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Bigarray.Array1.unsafe_get a !b < v)
    end

  let child_pos (below : buf) (cur : buf) ~slot ~slack ~v ~c ~base ~len =
    let off = if slot < 0 then 0 else Bigarray.Array1.unsafe_get cur (slot + c) in
    let w = ref (Int.min slack (len - off)) in
    if !w = 0 then off
    else begin
      let b = ref (base + off) in
      while !w > 1 do
        let half = !w lsr 1 in
        b := !b + (half * Bool.to_int (Bigarray.Array1.unsafe_get below (!b + half) < v));
        w := !w - half
      done;
      !b + Bool.to_int (Bigarray.Array1.unsafe_get below !b < v) - base
    end

  let leaf_count (a : buf) ~lo ~hi ~less_than =
    let acc = ref 0 in
    for i = lo to hi - 1 do
      acc := !acc + Bool.to_int (Bigarray.Array1.unsafe_get a i < less_than)
    done;
    !acc

  let leaf_select (a : buf) ~base ~vlo ~vhi ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      m := !m - Bool.to_int (in_range (Bigarray.Array1.unsafe_get a !i) vlo vhi);
      incr i
    done;
    Bigarray.Array1.unsafe_get a (!i - 1)

  let leaf_select_bounds (a : buf) ~base ~bounds ~nr ~nth =
    let i = ref base and m = ref (nth + 1) in
    while !m > 0 do
      let v = Bigarray.Array1.unsafe_get a !i in
      for r = 0 to nr - 1 do
        m :=
          !m
          - Bool.to_int
              (in_range v (Array.unsafe_get bounds (2 * r)) (Array.unsafe_get bounds ((2 * r) + 1)))
      done;
      incr i
    done;
    Bigarray.Array1.unsafe_get a (!i - 1)

  let of_int_array ~msg src =
    let n = Array.length src in
    let a = create n in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get src i in
      if v < min_value || v > max_value then invalid_arg msg;
      set a i v
    done;
    a

  let as_ints _ = None

  let blit_to_ints (a : buf) ~pos dst ~dst_pos ~len =
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i) (Bigarray.Array1.unsafe_get a (pos + i))
    done

  let blit_from_ints src ~pos (a : buf) ~dst_pos ~len =
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set a (dst_pos + i) (Array.unsafe_get src (pos + i))
    done
end
