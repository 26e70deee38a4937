(* In-place quickselect (Hoare) with 3-way partitioning and random-ish pivot
   via median-of-3, used on scratch copies of the frame. *)
let rec quickselect (a : int array) lo hi k =
  if hi - lo <= 1 then a.(lo)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i < !gt do
      let v = a.(!i) in
      if v < p then begin
        a.(!i) <- a.(!lt);
        a.(!lt) <- v;
        incr lt;
        incr i
      end
      else if v > p then begin
        decr gt;
        a.(!i) <- a.(!gt);
        a.(!gt) <- v
      end
      else incr i
    done;
    if k < !lt - lo then quickselect a lo !lt k
    else if k < !gt - lo then p
    else quickselect a !gt hi (k - (!gt - lo))
  end

(* The scans below are typed ([int array], int compares) and loop over
   [ranges] with [for]: an untyped [<] is a call into the generic compare,
   and an [Array.iter] closure allocates on every call. *)
let covered_length (ranges : (int * int) array) =
  let acc = ref 0 in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = Array.unsafe_get ranges r in
    if hi > lo then acc := !acc + (hi - lo)
  done;
  !acc

let select_kth (values : int array) ~(scratch : int array) ~(ranges : (int * int) array) ~k =
  let len = ref 0 in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = Array.unsafe_get ranges r in
    for i = lo to hi - 1 do
      scratch.(!len) <- values.(i);
      incr len
    done
  done;
  if k < 0 || k >= !len then invalid_arg "Naive.select_kth: k out of bounds";
  quickselect scratch 0 !len k

let count_less (values : int array) ~(ranges : (int * int) array) ~(less_than : int) =
  let acc = ref 0 in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = Array.unsafe_get ranges r in
    for i = lo to hi - 1 do
      if values.(i) < less_than then incr acc
    done
  done;
  !acc

module Int_tbl = Hashtbl.Make (Int)

let distinct_count (values : int array) ~(ranges : (int * int) array) =
  let table = Int_tbl.create (Int.max 16 (covered_length ranges)) in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = Array.unsafe_get ranges r in
    for i = lo to hi - 1 do
      Int_tbl.replace table values.(i) ()
    done
  done;
  Int_tbl.length table

let distinct_below (values : int array) ~(ranges : (int * int) array) ~(key : int) =
  let table = Int_tbl.create 16 in
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = Array.unsafe_get ranges r in
    for i = lo to hi - 1 do
      let v = values.(i) in
      if v < key then Int_tbl.replace table v ()
    done
  done;
  Int_tbl.length table
