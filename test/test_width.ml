(* Cross-width parity for the merge sort tree template (paper §5.1): the
   64-bit, 32-bit and 16-bit instantiations must be bit-identical oracles
   of each other on every query, across ragged tails, disabled cascading,
   holed frames and values parked on the storage-width boundaries. Also
   covers the width-selection rule ([Mst_width]) and the footprint claim
   that a directly-built narrow tree holds no 64-bit level/cursor arrays. *)

module Mst = Holistic_core.Mst
module C = Holistic_core.Mst_compact
module M16 = Holistic_core.Mst16
module W = Holistic_core.Mst_width
module Rng = Holistic_util.Rng

(* ------------------------------------------------------------------ *)
(* Brute-force oracles                                                 *)
(* ------------------------------------------------------------------ *)

let brute_count a lo hi t =
  let acc = ref 0 in
  for i = max lo 0 to min hi (Array.length a) - 1 do
    if a.(i) < t then incr acc
  done;
  !acc

let brute_count_ranges a ranges t =
  Array.fold_left (fun acc (lo, hi) -> acc + brute_count a lo hi t) 0 ranges

let in_ranges ranges v = Array.exists (fun (l, h) -> v >= l && v < h) ranges

let brute_cvr a ranges =
  Array.fold_left (fun acc v -> if in_ranges ranges v then acc + 1 else acc) 0 a

let brute_select a ranges nth =
  let m = ref nth and res = ref None in
  Array.iter
    (fun v -> if !res = None && in_ranges ranges v then if !m = 0 then res := Some v else decr m)
    a;
  !res

(* ------------------------------------------------------------------ *)
(* Randomized parity across all three instantiations                   *)
(* ------------------------------------------------------------------ *)

(* Value regimes park operands on the storage boundaries: around 2^15 and
   the 16-bit ceiling 2^16 - 1 (still 16-bit-capable), just past it
   (32/64-bit only), and against the int32 ceiling near 2^31 (64-bit
   confirms the 32-bit edge). *)
type regime = Small | Near_2_15 | Near_2_16 | Over_16 | Near_2_31

let regime_base = function
  | Small -> 0
  | Near_2_15 -> 32760 (* spans 2^15 = 32768 *)
  | Near_2_16 -> 65519 (* touches the 16-bit max 65535 *)
  | Over_16 -> 65530 (* spans past 65535: disqualifies the 16-bit tree *)
  | Near_2_31 -> Int32.to_int Int32.max_int - 16 (* touches the 32-bit max *)

let regime_span = 17 (* values in [base, base + span) *)

let width_case =
  QCheck.make
    ~print:(fun (a, f, k) ->
      Printf.sprintf "n=%d f=%d k=%d [%s]" (Array.length a) f k
        (String.concat ";" (Array.to_list (Array.map string_of_int a))))
    QCheck.Gen.(
      let* regime = oneofl [ Small; Small; Near_2_15; Near_2_16; Over_16; Near_2_31 ] in
      let base = regime_base regime in
      let* n = int_bound 230 in
      let* a = array_size (return n) (map (fun d -> base + d) (int_bound (regime_span - 1))) in
      let* f = oneofl [ 2; 3; 4; 8; 16; 32; 64 ] in
      let* k = oneofl [ 0; 1; 2; 4; 8; 32; 100 ] in
      return (a, f, k))

(* Holed positional frames (frame-exclusion, §4.7): up to three disjoint
   [lo, hi) position ranges, possibly degenerate or out of bounds. *)
let random_pos_ranges rng n =
  let l1 = Rng.int rng (n + 2) - 1 in
  let h1 = l1 + Rng.int rng (1 + (n / 2)) in
  let l2 = h1 + Rng.int rng 4 in
  let h2 = l2 + Rng.int rng (1 + (n / 3)) in
  let l3 = h2 + Rng.int rng 4 in
  let h3 = l3 + Rng.int rng (1 + (n / 4)) in
  match Rng.int rng 3 with
  | 0 -> [| (l1, h1) |]
  | 1 -> [| (l1, h1); (l2, h2) |]
  | _ -> [| (l1, h1); (l2, h2); (l3, h3) |]

(* Disjoint ascending value ranges over [base, base + span), with gaps so
   select descends through holes in the value domain too. *)
let random_value_ranges rng base =
  let l1 = base + Rng.int rng regime_span in
  let h1 = l1 + Rng.int rng 8 in
  let l2 = h1 + Rng.int rng 3 in
  let h2 = l2 + Rng.int rng 8 in
  match Rng.int rng 2 with 0 -> [| (l1, h1) |] | _ -> [| (l1, h1); (l2, h2) |]

let widths_agree =
  QCheck.Test.make ~name:"Mst / Mst_compact / Mst16 are bit-identical to the oracle" ~count:400
    width_case (fun (a, f, k) ->
      let n = Array.length a in
      let minv = Array.fold_left min 0 a and maxv = Array.fold_left max 0 a in
      let t64 = Mst.create ~fanout:f ~sample:k a in
      let t32 =
        if minv >= Int32.to_int Int32.min_int && maxv <= Int32.to_int Int32.max_int then
          Some (C.create ~fanout:f ~sample:k a)
        else None
      in
      let t16 =
        if minv >= 0 && maxv <= 0xFFFF && n <= 0xFFFF then Some (M16.create ~fanout:f ~sample:k a)
        else None
      in
      let base = if n = 0 then 0 else minv in
      let rng = Rng.create ((n * 131) + (f * 7) + k) in
      let ok = ref true in
      let check name got expect =
        if got <> expect then begin
          Printf.eprintf "width parity: %s got %d expect %d\n" name got expect;
          ok := false
        end
      in
      for _ = 1 to 25 do
        (* count over a single window *)
        let lo = Rng.int rng (n + 2) - 1 and hi = Rng.int rng (n + 2) - 1 in
        let th = base + Rng.int rng (regime_span + 4) - 2 in
        let expect = brute_count a lo hi th in
        check "count64" (Mst.count t64 ~lo ~hi ~less_than:th) expect;
        Option.iter (fun t -> check "count32" (C.count t ~lo ~hi ~less_than:th) expect) t32;
        Option.iter (fun t -> check "count16" (M16.count t ~lo ~hi ~less_than:th) expect) t16;
        (* count over a holed frame *)
        let pr = random_pos_ranges rng n in
        let expect = brute_count_ranges a pr th in
        check "count_ranges64" (Mst.count_ranges t64 ~ranges:pr ~less_than:th) expect;
        Option.iter (fun t -> check "count_ranges32" (C.count_ranges t ~ranges:pr ~less_than:th) expect) t32;
        Option.iter (fun t -> check "count_ranges16" (M16.count_ranges t ~ranges:pr ~less_than:th) expect) t16;
        (* qualifying population and select over value ranges *)
        let vr = random_value_ranges rng base in
        let expect = brute_cvr a vr in
        check "cvr64" (Mst.count_value_ranges t64 ~ranges:vr) expect;
        Option.iter (fun t -> check "cvr32" (C.count_value_ranges t ~ranges:vr) expect) t32;
        Option.iter (fun t -> check "cvr16" (M16.count_value_ranges t ~ranges:vr) expect) t16;
        if expect > 0 then begin
          let nth = Rng.int rng expect in
          match brute_select a vr nth with
          | None -> ok := false
          | Some v ->
              check "select64" (Mst.select t64 ~ranges:vr ~nth) v;
              Option.iter (fun t -> check "select32" (C.select t ~ranges:vr ~nth) v) t32;
              Option.iter (fun t -> check "select16" (M16.select t ~ranges:vr ~nth) v) t16
        end
      done;
      !ok)

(* The historical conversion path must agree with direct construction. *)
let of_mst_matches_direct =
  QCheck.Test.make ~name:"Mst_compact.of_mst agrees with direct create" ~count:150 width_case
    (fun (a, f, k) ->
      let minv = Array.fold_left min 0 a and maxv = Array.fold_left max 0 a in
      QCheck.assume (minv >= Int32.to_int Int32.min_int && maxv <= Int32.to_int Int32.max_int);
      let n = Array.length a in
      let direct = C.create ~fanout:f ~sample:k a in
      let converted = C.of_mst (Mst.create ~fanout:f ~sample:k a) in
      let base = if n = 0 then 0 else minv in
      let rng = Rng.create ((n * 67) + f + (k * 3)) in
      let ok = ref true in
      for _ = 1 to 20 do
        let lo = Rng.int rng (n + 2) - 1 and hi = Rng.int rng (n + 2) - 1 in
        let th = base + Rng.int rng (regime_span + 4) - 2 in
        if C.count direct ~lo ~hi ~less_than:th <> C.count converted ~lo ~hi ~less_than:th then
          ok := false;
        let vr = random_value_ranges rng base in
        if C.count_value_ranges direct ~ranges:vr <> C.count_value_ranges converted ~ranges:vr then
          ok := false
      done;
      C.stats direct = C.stats converted && !ok)

(* ------------------------------------------------------------------ *)
(* Probe paths: single range vs. split ranges vs. a sorting oracle      *)
(* ------------------------------------------------------------------ *)

(* The query entry points shared by the three instantiations, so one body
   of checks runs at every width without a per-call closure. *)
module type PROBE = sig
  type t

  val name : string

  val create :
    ?pool:Holistic_parallel.Task_pool.t ->
    ?fanout:int ->
    ?sample:int ->
    ?track_payload:bool ->
    int array ->
    t

  val count : t -> lo:int -> hi:int -> less_than:int -> int
  val count_ranges : t -> ranges:(int * int) array -> less_than:int -> int
  val count_bounds : t -> bounds:int array -> nr:int -> less_than:int -> int
  val count_value_ranges : t -> ranges:(int * int) array -> int
  val select : t -> ranges:(int * int) array -> nth:int -> int
  val select_bounds : t -> bounds:int array -> nr:int -> nth:int -> int
end

module P64 = struct
  include Mst

  let name = "Mst"
end

module P32 = struct
  include C

  let name = "Mst_compact"
end

module P16 = struct
  include M16

  let name = "Mst16"
end

(* count by sorting the window and binary-searching the threshold *)
let sorted_count a lo hi th =
  let lo = max lo 0 and hi = min hi (Array.length a) in
  if lo >= hi then 0
  else begin
    let w = Array.sub a lo (hi - lo) in
    Array.sort compare w;
    let l = ref 0 and r = ref (Array.length w) in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      if w.(mid) < th then l := mid + 1 else r := mid
    done;
    !l
  end

let select_error f =
  match f () with
  | _ -> "no exception"
  | exception Invalid_argument msg -> msg

module Probe_checks (P : PROBE) = struct
  (* Single-range [count]/[select] against the same range split into two
     adjacent pieces (the multi-range paths) and against the oracles. *)
  let parity ~n ~fanout ~sample =
    let rng = Rng.create ((n * 31) + (fanout * 7) + sample) in
    let span = 1 + (n / 3) in
    let a = Array.init n (fun _ -> Rng.int rng span) in
    let t = P.create ~fanout ~sample a in
    let where = Printf.sprintf "%s n=%d f=%d k=%d" P.name n fanout sample in
    for _ = 1 to 60 do
      let lo = Rng.int rng (n + 3) - 1 in
      let hi = lo + Rng.int rng (n + 2) in
      let mid = lo + Rng.int rng (hi - lo + 1) in
      let th = Rng.int rng (span + 2) - 1 in
      let expect = sorted_count a lo hi th in
      Alcotest.(check int) (where ^ " count") expect (P.count t ~lo ~hi ~less_than:th);
      Alcotest.(check int) (where ^ " count_ranges, one piece") expect
        (P.count_ranges t ~ranges:[| (lo, hi) |] ~less_than:th);
      Alcotest.(check int) (where ^ " count_ranges, split") expect
        (P.count_ranges t ~ranges:[| (lo, mid); (mid, hi) |] ~less_than:th);
      Alcotest.(check int) (where ^ " count_bounds, one piece") expect
        (P.count_bounds t ~bounds:[| lo; hi |] ~nr:1 ~less_than:th);
      Alcotest.(check int) (where ^ " count_bounds, split") expect
        (P.count_bounds t ~bounds:[| lo; mid; mid; hi; -7; -7 |] ~nr:2 ~less_than:th);
      let vlo = Rng.int rng (span + 2) - 1 in
      let vhi = vlo + Rng.int rng (span + 1) in
      let vmid = vlo + Rng.int rng (vhi - vlo + 1) in
      let one = [| (vlo, vhi) |] and split = [| (vlo, vmid); (vmid, vhi) |] in
      let total = brute_cvr a one in
      Alcotest.(check int) (where ^ " qualifying") total (P.count_value_ranges t ~ranges:one);
      if total > 0 then begin
        let nth = Rng.int rng total in
        let expect = Option.get (brute_select a one nth) in
        Alcotest.(check int) (where ^ " select") expect (P.select t ~ranges:one ~nth);
        Alcotest.(check int) (where ^ " select, split") expect (P.select t ~ranges:split ~nth);
        Alcotest.(check int) (where ^ " select_bounds, one piece") expect
          (P.select_bounds t ~bounds:[| vlo; vhi |] ~nr:1 ~nth);
        Alcotest.(check int) (where ^ " select_bounds, split") expect
          (P.select_bounds t ~bounds:[| vlo; vmid; vmid; vhi; -7; -7 |] ~nr:2 ~nth)
      end;
      (* both paths reject the same out-of-range ranks with one message *)
      List.iter
        (fun nth ->
          let msg =
            Printf.sprintf "%s.select: nth=%d out of bounds (%d qualifying)" P.name nth total
          in
          Alcotest.(check string) (where ^ " bounds") msg
            (select_error (fun () -> P.select t ~ranges:one ~nth));
          Alcotest.(check string) (where ^ " bounds, split") msg
            (select_error (fun () -> P.select t ~ranges:split ~nth)))
        [ -1; total ]
    done

  (* Shapes: n <= fanout (the descent starts at level 1, so a query is
     only the leaf finish), n just past a power of the fanout (a partial
     last leaf run: 33 and 257 over 32 and 2), and cascading off, at every
     element and at the default spacing. *)
  let test_parity () =
    List.iter
      (fun n ->
        List.iter
          (fun fanout ->
            List.iter (fun sample -> parity ~n ~fanout ~sample) [ 0; 1; 4; 32 ])
          [ 2; 5; 32 ])
      [ 0; 1; 2; 5; 31; 32; 33; 257; 1500 ]

  (* The probe loops allocate nothing: 10k probes of each kind leave the
     minor heap pointer where it was. *)
  let test_no_alloc () =
    let probes = 10_000 and n = 5_000 in
    let rng = Rng.create 4242 in
    let a = Array.init n (fun _ -> Rng.int rng 4096) in
    let t = P.create a in
    let lo = Array.init probes (fun _ -> Rng.int rng n) in
    let hi = Array.map (fun l -> l + 1 + Rng.int rng (n - l)) lo in
    let th = Array.init probes (fun _ -> Rng.int rng 4096) in
    let pieces =
      Array.init probes (fun i ->
          let mid = lo.(i) + Rng.int rng (hi.(i) - lo.(i) + 1) in
          [| (lo.(i), mid); (mid, hi.(i)) |])
    in
    let one =
      Array.init probes (fun _ ->
          let v = Rng.int rng 4000 in
          [| (v, v + 1 + Rng.int rng 96) |])
    in
    let nth =
      Array.map (fun r -> Rng.int rng (max 1 (P.count_value_ranges t ~ranges:r))) one
    in
    let words f =
      let w0 = int_of_float (Gc.minor_words ()) in
      let acc = f () in
      let w = int_of_float (Gc.minor_words ()) - w0 in
      ignore (Sys.opaque_identity acc);
      w
    in
    let count () =
      let acc = ref 0 in
      for i = 0 to probes - 1 do
        acc := !acc + P.count t ~lo:lo.(i) ~hi:hi.(i) ~less_than:th.(i)
      done;
      !acc
    in
    let count_ranges () =
      let acc = ref 0 in
      for i = 0 to probes - 1 do
        acc := !acc + P.count_ranges t ~ranges:pieces.(i) ~less_than:th.(i)
      done;
      !acc
    in
    let select () =
      let acc = ref 0 in
      for i = 0 to probes - 1 do
        if P.count_value_ranges t ~ranges:one.(i) > 0 then
          acc := !acc + P.select t ~ranges:one.(i) ~nth:nth.(i)
      done;
      !acc
    in
    (* the flat entry points, fed one bounds array refilled per probe *)
    let b = Array.make 4 0 in
    let count_bounds () =
      let acc = ref 0 in
      for i = 0 to probes - 1 do
        b.(0) <- fst pieces.(i).(0);
        b.(1) <- snd pieces.(i).(0);
        b.(2) <- fst pieces.(i).(1);
        b.(3) <- snd pieces.(i).(1);
        acc := !acc + P.count_bounds t ~bounds:b ~nr:2 ~less_than:th.(i)
      done;
      !acc
    in
    let select_bounds () =
      let acc = ref 0 in
      for i = 0 to probes - 1 do
        b.(0) <- fst one.(i).(0);
        b.(1) <- snd one.(i).(0);
        if P.count_value_ranges t ~ranges:one.(i) > 0 then
          acc := !acc + P.select_bounds t ~bounds:b ~nr:1 ~nth:nth.(i)
      done;
      !acc
    in
    (* first calls outside the measurement *)
    ignore (count () + count_ranges () + select () + count_bounds () + select_bounds ());
    Alcotest.(check int) (P.name ^ " count words") 0 (words count);
    Alcotest.(check int) (P.name ^ " count_ranges words") 0 (words count_ranges);
    Alcotest.(check int) (P.name ^ " select words") 0 (words select);
    Alcotest.(check int) (P.name ^ " count_bounds words") 0 (words count_bounds);
    Alcotest.(check int) (P.name ^ " select_bounds words") 0 (words select_bounds);
    Alcotest.(check int) (P.name ^ " count_bounds = count_ranges") (count_ranges ()) (count_bounds ());
    Alcotest.(check int) (P.name ^ " select_bounds = select") (select ()) (select_bounds ())
end

(* The storage kernels themselves against brute force, on a sorted run
   (for [child_pos]) and an unsorted one (for the leaf scans): every
   cursor offset below the answer with a slack reaching it, the
   uncascaded form (slot -1), and leaf scans from every base. *)
module Kernel_checks (S : Holistic_core.Mst_storage.S) = struct
  (* the message is built only on a mismatch: this loop checks ~10^5 cases *)
  let check what expect got =
    if expect <> got then Alcotest.failf "%s %s: expected %d, got %d" S.name (what ()) expect got

  let test () =
    let rng = Rng.create 97 in
    let n = 70 in
    let sorted = Array.init n (fun _ -> Rng.int rng 40) in
    Array.sort compare sorted;
    let below = S.of_int_array ~msg:"kernel test" sorted in
    let lb lo hi v =
      let p = ref lo in
      while !p < hi && sorted.(!p) < v do
        incr p
      done;
      !p
    in
    let cur = S.of_int_array ~msg:"kernel test" (Array.init (n + 1) (fun i -> i)) in
    for base = 0 to 9 do
      for len = 0 to n - base do
        for v = -1 to 41 do
          let pos = lb base (base + len) v - base in
          check
            (fun () -> Printf.sprintf "uncascaded b=%d l=%d v=%d" base len v)
            pos
            (S.child_pos below cur ~slot:(-1) ~slack:max_int ~v ~c:0 ~base ~len);
          (* a cursor entry [off] read at slot [off - c], slack [pos - off] *)
          for off = Int.max 0 (pos - 3) to pos do
            let c = off land 1 in
            check
              (fun () -> Printf.sprintf "cascaded b=%d l=%d v=%d off=%d" base len v off)
              pos
              (S.child_pos below cur ~slot:(off - c) ~slack:(pos - off + (v land 1)) ~v ~c ~base ~len)
          done
        done
      done
    done;
    let leaves = Array.init n (fun _ -> Rng.int rng 40) in
    let a = S.of_int_array ~msg:"kernel test" leaves in
    for lo = 0 to n do
      for hi = lo to Int.min n (lo + 40) do
        let th = Rng.int rng 42 - 1 in
        let expect = ref 0 in
        for i = lo to hi - 1 do
          if leaves.(i) < th then incr expect
        done;
        check (fun () -> "leaf_count") !expect (S.leaf_count a ~lo ~hi ~less_than:th)
      done
    done;
    for base = 0 to n - 1 do
      let vlo = Rng.int rng 40 in
      let vhi = vlo + Rng.int rng 12 and vlo2 = vlo + 15 and vhi2 = vlo + 15 + Rng.int rng 10 in
      let bounds = [| vlo; vhi; vlo2; vhi2 |] in
      let hits1 = ref [] and hits2 = ref [] in
      for i = n - 1 downto base do
        let v = leaves.(i) in
        if v >= vlo && v < vhi then hits1 := v :: !hits1;
        if (v >= vlo && v < vhi) || (v >= vlo2 && v < vhi2) then hits2 := v :: !hits2
      done;
      List.iteri
        (fun nth v ->
          check (fun () -> "leaf_select") v (S.leaf_select a ~base ~vlo ~vhi ~nth);
          check
            (fun () -> "leaf_select_bounds, one range")
            v
            (S.leaf_select_bounds a ~base ~bounds ~nr:1 ~nth))
        !hits1;
      List.iteri
        (fun nth v ->
          check (fun () -> "leaf_select_bounds") v (S.leaf_select_bounds a ~base ~bounds ~nr:2 ~nth))
        !hits2
    done
end

module Checks64 = struct
  include Probe_checks (P64)
  module K = Kernel_checks (Holistic_core.Mst_storage.Int63)

  let test_parity () =
    K.test ();
    test_parity ()
end

module Checks32 = struct
  include Probe_checks (P32)
  module K = Kernel_checks (Holistic_core.Mst_storage.Int32s)

  let test_parity () =
    K.test ();
    test_parity ()
end

module Checks16 = struct
  include Probe_checks (P16)
  module K = Kernel_checks (Holistic_core.Mst_storage.Int16u)

  let test_parity () =
    K.test ();
    test_parity ()
end

(* ------------------------------------------------------------------ *)
(* Width boundaries: rejection                                         *)
(* ------------------------------------------------------------------ *)

let test_rejection () =
  Alcotest.check_raises "16-bit rejects negatives"
    (Invalid_argument "Mst16.create: value exceeds 16-bit storage range") (fun () ->
      ignore (M16.create [| 3; -1 |]));
  Alcotest.check_raises "16-bit rejects 65536"
    (Invalid_argument "Mst16.create: value exceeds 16-bit storage range") (fun () ->
      ignore (M16.create [| 65535; 65536 |]));
  Alcotest.check_raises "16-bit rejects over-long arrays"
    (Invalid_argument "Mst16.create: length 65536 exceeds 16-bit storage") (fun () ->
      ignore (M16.create (Array.make 65536 1)));
  Alcotest.check_raises "32-bit rejects over-range values"
    (Invalid_argument "Mst_compact.create: value exceeds 32-bit storage range") (fun () ->
      ignore (C.create [| Int32.to_int Int32.max_int + 1 |]));
  Alcotest.check_raises "of_mst rejects over-range values"
    (Invalid_argument "Mst_compact.of_mst: value exceeds 32-bit range") (fun () ->
      ignore (C.of_mst (Mst.create [| 0; Int32.to_int Int32.min_int - 1 |])));
  (* the widest boundary values that must be accepted *)
  let t = M16.create [| 0; 65535 |] in
  Alcotest.(check int) "16-bit max stored" 1
    (M16.count t ~lo:0 ~hi:2 ~less_than:65535);
  let t = C.create [| Int32.to_int Int32.min_int; Int32.to_int Int32.max_int |] in
  Alcotest.(check int) "32-bit extremes stored" 1
    (C.count t ~lo:0 ~hi:2 ~less_than:0)

(* ------------------------------------------------------------------ *)
(* Footprint: a direct narrow build holds no 64-bit arrays              *)
(* ------------------------------------------------------------------ *)

let test_narrow_footprint () =
  let n = 5_000 in
  let a = Array.init n (fun i -> (i * 2654435761) land 0xFFFF) in
  let s64 = Mst.stats (Mst.create ~fanout:4 ~sample:8 a) in
  let s32 = C.stats (C.create ~fanout:4 ~sample:8 a) in
  let s16 = M16.stats (M16.create ~fanout:4 ~sample:8 a) in
  (* identical shapes: same element population at every width *)
  Alcotest.(check int) "level elements 32" s64.Mst.level_elements s32.C.level_elements;
  Alcotest.(check int) "level elements 16" s64.Mst.level_elements s16.M16.level_elements;
  Alcotest.(check int) "cursor elements 32" s64.Mst.cursor_elements s32.C.cursor_elements;
  Alcotest.(check int) "cursor elements 16" s64.Mst.cursor_elements s16.M16.cursor_elements;
  (* the narrow representations are exactly 4 (resp. 2) bytes per element:
     were any 64-bit level or cursor array still allocated and retained,
     these equalities could not hold *)
  let elems s = s.Mst.level_elements + s.Mst.cursor_elements + s.Mst.payload_elements in
  Alcotest.(check int) "64-bit bytes" (8 * elems s64) s64.Mst.heap_bytes;
  Alcotest.(check int) "32-bit bytes are half"
    (4 * (s32.C.level_elements + s32.C.cursor_elements + s32.C.payload_elements))
    s32.C.heap_bytes;
  Alcotest.(check int) "16-bit bytes are a quarter"
    (2 * (s16.M16.level_elements + s16.M16.cursor_elements + s16.M16.payload_elements))
    s16.M16.heap_bytes;
  Alcotest.(check int) "32 = 64 / 2" (s64.Mst.heap_bytes / 2) s32.C.heap_bytes;
  Alcotest.(check int) "16 = 64 / 4" (s64.Mst.heap_bytes / 4) s16.M16.heap_bytes

(* ------------------------------------------------------------------ *)
(* Width selection                                                     *)
(* ------------------------------------------------------------------ *)

let test_width_for () =
  let check name expect ~n ~min_value ~max_value =
    Alcotest.(check bool) name true (W.width_for ~n ~min_value ~max_value = expect)
  in
  check "small dense ranks -> 16" W.W16 ~n:100 ~min_value:0 ~max_value:200;
  check "16-bit ceiling -> 16" W.W16 ~n:0xFFFF ~min_value:0 ~max_value:0xFFFF;
  check "negative min -> 32" W.W32 ~n:100 ~min_value:(-1) ~max_value:200;
  check "value past 65535 -> 32" W.W32 ~n:100 ~min_value:0 ~max_value:65536;
  check "length past 65535 -> 32" W.W32 ~n:65536 ~min_value:0 ~max_value:10;
  check "int32 ceiling -> 32" W.W32 ~n:1000 ~min_value:Int32.(to_int min_int)
    ~max_value:Int32.(to_int max_int);
  check "value past int32 -> 64" W.W64 ~n:10 ~min_value:0 ~max_value:(Int32.to_int Int32.max_int + 1);
  check "length past int32 -> 64" W.W64 ~n:(Int32.to_int Int32.max_int + 1) ~min_value:0 ~max_value:1

let test_width_dispatch () =
  let a = Array.init 777 (fun i -> (i * 37) mod 500) in
  let auto = W.create a in
  Alcotest.(check bool) "auto picks 16-bit for dense ranks" true (W.width auto = W.W16);
  Alcotest.(check int) "auto bits" 16 (W.bits (W.width auto));
  let forced64 = W.create ~choice:(W.Force W.W64) a in
  Alcotest.(check bool) "force 64 respected" true (W.width forced64 = W.W64);
  (* forcing a width the operand does not fit widens instead of failing *)
  let wide = Array.init 50 (fun i -> 65530 + i) in
  let widened = W.create ~choice:(W.Force W.W16) wide in
  Alcotest.(check bool) "forced 16 widens to 32" true (W.width widened = W.W32);
  let t64 = Mst.create a in
  let rng = Rng.create 991 in
  let ok = ref true in
  for _ = 1 to 40 do
    let lo = Rng.int rng 780 - 1 and hi = Rng.int rng 780 - 1 in
    let th = Rng.int rng 520 - 10 in
    let expect = Mst.count t64 ~lo ~hi ~less_than:th in
    List.iter
      (fun t -> if W.count t ~lo ~hi ~less_than:th <> expect then ok := false)
      [ auto; forced64; W.create ~choice:(W.Force W.W32) a ]
  done;
  Alcotest.(check bool) "dispatch parity across forced widths" true !ok;
  Alcotest.(check bool) "narrow dispatch is smaller" true
    (W.heap_bytes auto < W.heap_bytes forced64)

let () =
  Alcotest.run "width"
    [
      ( "parity",
        [
          QCheck_alcotest.to_alcotest widths_agree;
          QCheck_alcotest.to_alcotest of_mst_matches_direct;
        ] );
      ( "probes",
        [
          Alcotest.test_case "64-bit single range = split = oracle" `Quick Checks64.test_parity;
          Alcotest.test_case "32-bit single range = split = oracle" `Quick Checks32.test_parity;
          Alcotest.test_case "16-bit single range = split = oracle" `Quick Checks16.test_parity;
          Alcotest.test_case "64-bit probes allocate nothing" `Quick Checks64.test_no_alloc;
          Alcotest.test_case "32-bit probes allocate nothing" `Quick Checks32.test_no_alloc;
          Alcotest.test_case "16-bit probes allocate nothing" `Quick Checks16.test_no_alloc;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "rejection at width edges" `Quick test_rejection;
          Alcotest.test_case "narrow footprint" `Quick test_narrow_footprint;
        ] );
      ( "selection",
        [
          Alcotest.test_case "width_for rule" `Quick test_width_for;
          Alcotest.test_case "dispatch and forcing" `Quick test_width_dispatch;
        ] );
    ]
