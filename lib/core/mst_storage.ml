(* Storage backends for the per-integer-width merge sort tree template
   (paper §5.1). Every MST operand is rank-encoded into a dense integer
   domain, so the tree can be instantiated at the narrowest width that fits:
   the same build/query logic runs over 64-bit [int array]s, 32-bit [int32]
   bigarrays or 16-bit [int16_unsigned] bigarrays, quartering the cache
   footprint of the bandwidth-bound query phase on small partitions.

   Each backend keeps its binary search monomorphic and loop-local — the
   search is the hot query operation and must not pay a functor-indirection
   per probe step (this toolchain has no flambda, so calls through the
   functor argument are real calls). One call per [lower_bound] amortises
   over a full-run search, but not over the cascaded windows of a
   descent, which hold fewer than [sample] elements and often just 0–2:
   there the call (and the cursor [get] before it) is most of the cost.
   The template therefore reads a sample-point position straight from the
   cursor state without searching at all. *)

module Bs = Holistic_util.Binary_search

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
  let lower_bound = Bs.lower_bound
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

  let lower_bound (a : buf) ~lo ~hi x =
    let lo = ref lo and len = ref (hi - lo) in
    while !len > 0 do
      let half = !len / 2 in
      let mid = !lo + half in
      if Int32.to_int (Bigarray.Array1.unsafe_get a mid) < x then begin
        lo := mid + 1;
        len := !len - half - 1
      end
      else len := half
    done;
    !lo

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

  let lower_bound (a : buf) ~lo ~hi x =
    let lo = ref lo and len = ref (hi - lo) in
    while !len > 0 do
      let half = !len / 2 in
      let mid = !lo + half in
      if Bigarray.Array1.unsafe_get a mid < x then begin
        lo := mid + 1;
        len := !len - half - 1
      end
      else len := half
    done;
    !lo

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
