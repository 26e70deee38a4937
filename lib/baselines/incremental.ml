(* Int-keyed tables: the polymorphic [Hashtbl] calls the generic compare on
   every bucket probe.  [Int.hash] is [Hashtbl.hash] on ints, so bucket
   layout and iteration order are unchanged. *)
module Int_tbl = Hashtbl.Make (Int)

module Distinct_count = struct
  type t = { table : int Int_tbl.t; mutable distinct : int }

  let create () = { table = Int_tbl.create 64; distinct = 0 }

  let add t v =
    match Int_tbl.find_opt t.table v with
    | None ->
        Int_tbl.replace t.table v 1;
        t.distinct <- t.distinct + 1
    | Some m -> Int_tbl.replace t.table v (m + 1)

  let remove t v =
    match Int_tbl.find_opt t.table v with
    | None -> invalid_arg "Incremental.Distinct_count.remove: absent value"
    | Some 1 ->
        Int_tbl.remove t.table v;
        t.distinct <- t.distinct - 1
    | Some m -> Int_tbl.replace t.table v (m - 1)

  let count t = t.distinct

  let clear t =
    Int_tbl.reset t.table;
    t.distinct <- 0

  let footprint_bytes t =
    let s = Int_tbl.stats t.table in
    (* record (header + 2 fields), table record, bucket array, and one
       3-word cons + 2-word boxed pair per binding *)
    8 * (3 + 5 + 1 + s.Hashtbl.num_buckets + (5 * s.Hashtbl.num_bindings))
end

module Sorted_window = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }
  let size t = t.len

  let position t v =
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.data.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo

  let add t v =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    let p = position t v in
    Array.blit t.data p t.data (p + 1) (t.len - p);
    t.data.(p) <- v;
    t.len <- t.len + 1

  let remove t v =
    let p = position t v in
    if p >= t.len || t.data.(p) <> v then raise Not_found;
    Array.blit t.data (p + 1) t.data p (t.len - p - 1);
    t.len <- t.len - 1

  let select t i =
    if i < 0 || i >= t.len then invalid_arg "Incremental.Sorted_window.select";
    t.data.(i)

  let rank t v = position t v

  let clear t = t.len <- 0

  (* record (header + 2 fields) + backing array (header + capacity) *)
  let footprint_bytes t = 8 * (3 + 1 + Array.length t.data)
end

module Mode = struct
  type t = {
    counts : int Int_tbl.t; (* id -> multiplicity *)
    buckets : unit Int_tbl.t Int_tbl.t; (* multiplicity -> ids *)
    mutable max_count : int;
    mutable size : int;
  }

  let create () =
    { counts = Int_tbl.create 64; buckets = Int_tbl.create 16; max_count = 0; size = 0 }

  let bucket t c =
    match Int_tbl.find_opt t.buckets c with
    | Some b -> b
    | None ->
        let b = Int_tbl.create 8 in
        Int_tbl.replace t.buckets c b;
        b

  let move t v ~from ~into =
    if from > 0 then begin
      let b = bucket t from in
      Int_tbl.remove b v;
      if Int_tbl.length b = 0 then Int_tbl.remove t.buckets from
    end;
    if into > 0 then begin
      Int_tbl.replace (bucket t into) v ();
      Int_tbl.replace t.counts v into
    end
    else Int_tbl.remove t.counts v

  let add t v =
    let c = Option.value (Int_tbl.find_opt t.counts v) ~default:0 in
    move t v ~from:c ~into:(c + 1);
    if c + 1 > t.max_count then t.max_count <- c + 1;
    t.size <- t.size + 1

  let remove t v =
    match Int_tbl.find_opt t.counts v with
    | None | Some 0 -> invalid_arg "Incremental.Mode.remove: absent value"
    | Some c ->
        move t v ~from:c ~into:(c - 1);
        (* the max can only drop by one, and only when its bucket empties *)
        if c = t.max_count && not (Int_tbl.mem t.buckets c) then t.max_count <- c - 1;
        t.size <- t.size - 1

  let size t = t.size
  let max_count t = t.max_count

  let mode t ~better =
    if t.max_count = 0 then None
    else begin
      let best = ref None in
      Int_tbl.iter
        (fun v () ->
          match !best with
          | None -> best := Some v
          | Some b -> if better v b then best := Some v)
        (bucket t t.max_count);
      !best
    end

  let clear t =
    Int_tbl.reset t.counts;
    Int_tbl.reset t.buckets;
    t.max_count <- 0;
    t.size <- 0

  let table_bytes stats =
    8 * (5 + 1 + stats.Hashtbl.num_buckets + (5 * stats.Hashtbl.num_bindings))

  let footprint_bytes t =
    let nested = Int_tbl.fold (fun _ b acc -> acc + table_bytes (Int_tbl.stats b)) t.buckets 0 in
    (* record (header + 4 fields) + both top-level tables + nested id sets *)
    (8 * 5) + table_bytes (Int_tbl.stats t.counts) + table_bytes (Int_tbl.stats t.buckets) + nested
end

module Frame_driver = struct
  let run ~n ~frame ~add ~remove ~result ~reset ~lo ~hi =
    reset ();
    (* current materialised frame *)
    let cur_lo = ref 0 and cur_hi = ref 0 in
    for i = lo to hi - 1 do
      let flo, fhi = frame i in
      let flo = Int.max 0 (Int.min flo n) and fhi = Int.max 0 (Int.min fhi n) in
      let flo, fhi = if flo > fhi then (flo, flo) else (flo, fhi) in
      (* Morph [cur_lo, cur_hi) into [flo, fhi) with adds/removes. When the
         frames are disjoint everything is removed then re-added — the
         non-monotonic worst case. *)
      if fhi <= !cur_lo || flo >= !cur_hi then begin
        for j = !cur_lo to !cur_hi - 1 do
          remove j
        done;
        for j = flo to fhi - 1 do
          add j
        done
      end
      else begin
        if flo < !cur_lo then
          for j = flo to !cur_lo - 1 do
            add j
          done
        else
          for j = !cur_lo to flo - 1 do
            remove j
          done;
        if fhi > !cur_hi then
          for j = !cur_hi to fhi - 1 do
            add j
          done
        else
          for j = fhi to !cur_hi - 1 do
            remove j
          done
      end;
      cur_lo := flo;
      cur_hi := fhi;
      result i
    done
end
