module Bs = Holistic_util.Binary_search
module Obs = Holistic_obs.Obs

type run = { lo : int; hi : int }

let total_length runs = Array.fold_left (fun acc r -> acc + (r.hi - r.lo)) 0 runs

(* A small binary min-heap keyed by (value, run index); replace-top based
   k-way merge. Heap entries: per-slot value, run index and cursor. *)
type heap = {
  mutable size : int;
  vals : int array;
  run_of : int array;
  cursor : int array;
}

let heap_less h i j =
  h.vals.(i) < h.vals.(j) || (h.vals.(i) = h.vals.(j) && h.run_of.(i) < h.run_of.(j))

let heap_swap h i j =
  let sw (a : int array) =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  sw h.vals;
  sw h.run_of;
  sw h.cursor

let rec heap_down h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let c = if l + 1 < h.size && heap_less h (l + 1) l then l + 1 else l in
    if heap_less h c i then begin
      heap_swap h i c;
      heap_down h c
    end
  end

let rec heap_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less h i parent then begin
      heap_swap h i parent;
      heap_up h parent
    end
  end

let heap_of_runs (src : int array) (runs : run array) =
  let k = Array.length runs in
  let h = { size = 0; vals = Array.make k 0; run_of = Array.make k 0; cursor = Array.make k 0 } in
  Array.iteri
    (fun r { lo; hi } ->
      if lo < hi then begin
        let i = h.size in
        h.vals.(i) <- src.(lo);
        h.run_of.(i) <- r;
        h.cursor.(i) <- lo;
        h.size <- h.size + 1;
        heap_up h i
      end)
    runs;
  h

let merge ~src ~runs ~dst ~dst_pos =
  let h = heap_of_runs src runs in
  let pos = ref dst_pos in
  while h.size > 0 do
    dst.(!pos) <- h.vals.(0);
    incr pos;
    let r = h.run_of.(0) in
    let c = h.cursor.(0) + 1 in
    if c < runs.(r).hi then begin
      h.vals.(0) <- src.(c);
      h.cursor.(0) <- c;
      heap_down h 0
    end
    else begin
      h.size <- h.size - 1;
      if h.size > 0 then begin
        heap_swap h 0 h.size;
        heap_down h 0
      end
    end
  done

let merge_pairs ~key ~payload ~runs ~dst_key ~dst_payload ~dst_pos =
  let h = heap_of_runs key runs in
  let pos = ref dst_pos in
  while h.size > 0 do
    let c0 = h.cursor.(0) in
    dst_key.(!pos) <- h.vals.(0);
    dst_payload.(!pos) <- payload.(c0);
    incr pos;
    let r = h.run_of.(0) in
    let c = c0 + 1 in
    if c < runs.(r).hi then begin
      h.vals.(0) <- key.(c);
      h.cursor.(0) <- c;
      heap_down h 0
    end
    else begin
      h.size <- h.size - 1;
      if h.size > 0 then begin
        heap_swap h 0 h.size;
        heap_down h 0
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Multi-word normalized keys with offset-value coded merging          *)
(* ------------------------------------------------------------------ *)

type multiword = {
  key0 : int array;
  payload : int array;
  deep : int array array;
  tie : (int -> int -> int) option;
}

let deep_compare mw =
  let deep = mw.deep in
  let nd = Array.length deep in
  let tie = mw.tie in
  fun r1 r2 ->
    let rec words w =
      if w = nd then
        match tie with
        | Some t ->
            let c = t r1 r2 in
            if c <> 0 then c else Int.compare r1 r2
        | None -> Int.compare r1 r2
      else
        let dw = Array.unsafe_get deep w in
        let c = Int.compare dw.(r1) dw.(r2) in
        if c <> 0 then c else words (w + 1)
    in
    words 0

let compare_positions mw =
  let key0 = mw.key0 and payload = mw.payload in
  let dc = deep_compare mw in
  fun i j ->
    let c = Int.compare key0.(i) key0.(j) in
    if c <> 0 then c else dc payload.(i) payload.(j)

(* Global comparison counters for the OVC merge: [decided] compares
   settled by the codes alone, [scanned] compares that had to read key
   words. Accumulated locally per merge and flushed once, so parallel
   segment merges do not contend. *)
let ovc_decided_count = Obs.Counter.make ~help:"Merge comparisons decided by offset-value codes alone" "sort.ovc_decided"
let ovc_scanned_count = Obs.Counter.make ~help:"Merge comparisons that fell back to scanning key bytes" "sort.ovc_scanned"
let ovc_stats () = (Obs.Counter.value ovc_decided_count, Obs.Counter.value ovc_scanned_count)

let reset_ovc_stats () =
  Obs.Counter.set ovc_decided_count 0;
  Obs.Counter.set ovc_scanned_count 0

(* K-way merge as a tree of losers carrying offset-value codes (Do &
   Graefe, "Robust and Efficient Sorting with Offset-Value Coding").
   Each entry's code [(off, v)] is relative to the record that most
   recently defeated it at its node: [off] is the index of the first key
   word where the entry differs from that base, [v] the entry's word
   there. Two entries meeting at a node always carry codes relative to
   the same base, so (for ascending order) the larger offset wins, equal
   offsets compare [v], and only a full [(off, v)] tie forces a scan of
   the actual key words from [off + 1] on — after which the {e loser}'s
   code is rewritten relative to the winner (a winner's code never
   changes; on an OVC-decided loss the loser's stale code is already
   correct relative to the winner). Duplicate-heavy composite keys thus
   cost one int compare per heap step instead of a full key walk. *)
let merge_multiword ~mw ~runs ~dst_key0 ~dst_payload ~dst_pos =
  let nruns = Array.length runs in
  if nruns = 1 then begin
    let { lo; hi } = runs.(0) in
    Array.blit mw.key0 lo dst_key0 dst_pos (hi - lo);
    Array.blit mw.payload lo dst_payload dst_pos (hi - lo)
  end
  else if nruns > 1 then begin
    let key0 = mw.key0 and payload = mw.payload and deep = mw.deep in
    let nd = Array.length deep in
    let nwords = 1 + nd in
    let word pos w = if w = 0 then key0.(pos) else deep.(w - 1).(payload.(pos)) in
    let residual r1 r2 =
      match mw.tie with
      | Some t ->
          let c = t r1 r2 in
          if c <> 0 then c else Int.compare r1 r2
      | None -> Int.compare r1 r2
    in
    let kk = ref 1 in
    while !kk < nruns do kk := !kk * 2 done;
    let kk = !kk in
    let cursor = Array.make kk 0 in
    let alive = Array.make kk false in
    let off = Array.make kk 0 in
    let ovc_v = Array.make kk 0 in
    for r = 0 to nruns - 1 do
      let { lo; hi } = runs.(r) in
      if lo < hi then begin
        cursor.(r) <- lo;
        alive.(r) <- true;
        (* initial codes are relative to a virtual -infinity base *)
        off.(r) <- 0;
        ovc_v.(r) <- key0.(lo)
      end
    done;
    let decided = ref 0 and scanned = ref 0 in
    (* [beats a b]: leaf [a]'s entry sorts strictly before leaf [b]'s. *)
    let beats a b =
      if not alive.(b) then true
      else if not alive.(a) then false
      else begin
        let oa = off.(a) and ob = off.(b) in
        if oa <> ob then begin
          incr decided;
          oa > ob
        end
        else if ovc_v.(a) <> ovc_v.(b) then begin
          incr decided;
          ovc_v.(a) < ovc_v.(b)
        end
        else begin
          incr scanned;
          let pa = cursor.(a) and pb = cursor.(b) in
          let w = ref (oa + 1) in
          while !w < nwords && word pa !w = word pb !w do incr w done;
          if !w < nwords then begin
            let wa = word pa !w and wb = word pb !w in
            if wa < wb then begin
              off.(b) <- !w;
              ovc_v.(b) <- wb;
              true
            end
            else begin
              off.(a) <- !w;
              ovc_v.(a) <- wa;
              false
            end
          end
          else begin
            (* word-equal keys: the residual decides; the loser is
               word-equal to its new base *)
            if residual payload.(pa) payload.(pb) < 0 then begin
              off.(b) <- nwords;
              ovc_v.(b) <- 0;
              true
            end
            else begin
              off.(a) <- nwords;
              ovc_v.(a) <- 0;
              false
            end
          end
        end
      end
    in
    (* node.(i), 1 <= i < kk, stores the losing leaf of its subtree;
       leaves are implicit at kk .. 2*kk-1 *)
    let node = Array.make kk (-1) in
    let rec build i =
      if i >= kk then i - kk
      else begin
        let wl = build (2 * i) and wr = build ((2 * i) + 1) in
        if beats wl wr then begin
          node.(i) <- wr;
          wl
        end
        else begin
          node.(i) <- wl;
          wr
        end
      end
    in
    let winner = ref (build 1) in
    let pos = ref dst_pos in
    let total = total_length runs in
    for _ = 1 to total do
      let w = !winner in
      let c = cursor.(w) in
      dst_key0.(!pos) <- key0.(c);
      dst_payload.(!pos) <- payload.(c);
      incr pos;
      let c' = c + 1 in
      if c' < runs.(w).hi then begin
        cursor.(w) <- c';
        (* the new entrant's code is relative to its run predecessor —
           exactly the record just emitted as the global winner *)
        let ww = ref 0 in
        while !ww < nwords && word c' !ww = word c !ww do incr ww done;
        if !ww < nwords then begin
          off.(w) <- !ww;
          ovc_v.(w) <- word c' !ww
        end
        else begin
          off.(w) <- nwords;
          ovc_v.(w) <- 0
        end
      end
      else alive.(w) <- false;
      (* replay from the leaf's parent to the root *)
      let cur = ref w in
      let i = ref ((kk + w) lsr 1) in
      while !i >= 1 do
        let l = node.(!i) in
        if beats l !cur then begin
          node.(!i) <- !cur;
          cur := l
        end;
        i := !i lsr 1
      done;
      winner := !cur
    done;
    Obs.Counter.add_always ovc_decided_count !decided;
    Obs.Counter.add_always ovc_scanned_count !scanned
  end

(* ------------------------------------------------------------------ *)
(* Run sources: buffered streams of interleaved entries                *)
(* ------------------------------------------------------------------ *)

(* A source yields one sorted run as interleaved entries of [nwords] key
   words followed by the payload row id (stride [nwords + 1]), refilled
   on demand. In-memory segments and on-disk run files present the same
   face, so the OVC loser tree below merges them identically. *)
type source = {
  s_nwords : int;
  s_buf : int array;
  mutable s_len : int; (* entries currently buffered *)
  mutable s_cur : int; (* current entry index, < s_len when alive *)
  s_prev : int array; (* key words of the entry emitted just before s_buf.(0) *)
  s_refill : int array -> int;
  s_close : unit -> unit;
}

let make_source ~nwords ~buf_entries ~refill ~close =
  if nwords < 1 then invalid_arg "Multiway.make_source: nwords must be >= 1";
  let buf_entries = Int.max 1 buf_entries in
  let s =
    {
      s_nwords = nwords;
      s_buf = Array.make (buf_entries * (nwords + 1)) 0;
      s_len = 0;
      s_cur = 0;
      s_prev = Array.make nwords 0;
      s_refill = refill;
      s_close = close;
    }
  in
  s.s_len <- refill s.s_buf;
  s

let source_close s = s.s_close ()

let source_of_run ~mw { lo; hi } =
  let nd = Array.length mw.deep in
  let nwords = 1 + nd in
  let stride = nwords + 1 in
  let pos = ref lo in
  let refill buf =
    let cap = Array.length buf / stride in
    let m = Int.min cap (hi - !pos) in
    for e = 0 to m - 1 do
      let p = !pos + e in
      let base = e * stride in
      buf.(base) <- mw.key0.(p);
      let rid = mw.payload.(p) in
      for w = 0 to nd - 1 do
        buf.(base + 1 + w) <- mw.deep.(w).(rid)
      done;
      buf.(base + nwords) <- rid
    done;
    pos := !pos + m;
    m
  in
  make_source ~nwords ~buf_entries:256 ~refill ~close:(fun () -> ())

(* The same tree-of-losers OVC merge as [merge_multiword], over buffered
   sources instead of array segments. The only structural difference is
   the run-predecessor access for a new entrant's code: within a buffer
   it is the previous slot; across a refill boundary it is the key words
   saved in [s_prev] before the refill. *)
let merge_sources ~sources ?tie ~emit () =
  let nruns = Array.length sources in
  if nruns > 0 then begin
    let nwords = sources.(0).s_nwords in
    Array.iter
      (fun s -> if s.s_nwords <> nwords then invalid_arg "Multiway.merge_sources: mixed word counts")
      sources;
    let stride = nwords + 1 in
    let residual r1 r2 =
      match tie with
      | Some t ->
          let c = t r1 r2 in
          if c <> 0 then c else Int.compare r1 r2
      | None -> Int.compare r1 r2
    in
    let word s w = s.s_buf.((s.s_cur * stride) + w) in
    let payload s = s.s_buf.((s.s_cur * stride) + nwords) in
    let prev_word s w = if s.s_cur > 0 then s.s_buf.(((s.s_cur - 1) * stride) + w) else s.s_prev.(w) in
    let advance s =
      let c = s.s_cur + 1 in
      if c < s.s_len then begin
        s.s_cur <- c;
        true
      end
      else begin
        let base = s.s_cur * stride in
        for w = 0 to nwords - 1 do
          s.s_prev.(w) <- s.s_buf.(base + w)
        done;
        s.s_len <- s.s_refill s.s_buf;
        s.s_cur <- 0;
        s.s_len > 0
      end
    in
    if nruns = 1 then begin
      let s = sources.(0) in
      if s.s_len > 0 then begin
        let continue = ref true in
        while !continue do
          emit (word s 0) (payload s);
          continue := advance s
        done
      end
    end
    else begin
      let kk = ref 1 in
      while !kk < nruns do kk := !kk * 2 done;
      let kk = !kk in
      let alive = Array.make kk false in
      let off = Array.make kk 0 in
      let ovc_v = Array.make kk 0 in
      let total_alive = ref 0 in
      for r = 0 to nruns - 1 do
        let s = sources.(r) in
        if s.s_len > 0 then begin
          alive.(r) <- true;
          incr total_alive;
          off.(r) <- 0;
          ovc_v.(r) <- word s 0
        end
      done;
      let decided = ref 0 and scanned = ref 0 in
      let beats a b =
        if not alive.(b) then true
        else if not alive.(a) then false
        else begin
          let oa = off.(a) and ob = off.(b) in
          if oa <> ob then begin
            incr decided;
            oa > ob
          end
          else if ovc_v.(a) <> ovc_v.(b) then begin
            incr decided;
            ovc_v.(a) < ovc_v.(b)
          end
          else begin
            incr scanned;
            let sa = sources.(a) and sb = sources.(b) in
            let w = ref (oa + 1) in
            while !w < nwords && word sa !w = word sb !w do incr w done;
            if !w < nwords then begin
              let wa = word sa !w and wb = word sb !w in
              if wa < wb then begin
                off.(b) <- !w;
                ovc_v.(b) <- wb;
                true
              end
              else begin
                off.(a) <- !w;
                ovc_v.(a) <- wa;
                false
              end
            end
            else if residual (payload sa) (payload sb) < 0 then begin
              off.(b) <- nwords;
              ovc_v.(b) <- 0;
              true
            end
            else begin
              off.(a) <- nwords;
              ovc_v.(a) <- 0;
              false
            end
          end
        end
      in
      let node = Array.make kk (-1) in
      let rec build i =
        if i >= kk then i - kk
        else begin
          let wl = build (2 * i) and wr = build ((2 * i) + 1) in
          if beats wl wr then begin
            node.(i) <- wr;
            wl
          end
          else begin
            node.(i) <- wl;
            wr
          end
        end
      in
      let winner = ref (build 1) in
      while !total_alive > 0 do
        let wl = !winner in
        let s = sources.(wl) in
        emit (word s 0) (payload s);
        if advance s then begin
          let ww = ref 0 in
          while !ww < nwords && word s !ww = prev_word s !ww do incr ww done;
          if !ww < nwords then begin
            off.(wl) <- !ww;
            ovc_v.(wl) <- word s !ww
          end
          else begin
            off.(wl) <- nwords;
            ovc_v.(wl) <- 0
          end
        end
        else begin
          alive.(wl) <- false;
          decr total_alive
        end;
        let cur = ref wl in
        let i = ref ((kk + wl) lsr 1) in
        while !i >= 1 do
          let l = node.(!i) in
          if beats l !cur then begin
            node.(!i) <- !cur;
            cur := l
          end;
          i := !i lsr 1
        done;
        winner := !cur
      done;
      Obs.Counter.add_always ovc_decided_count !decided;
      Obs.Counter.add_always ovc_scanned_count !scanned
    end
  end

let lower_bound_by ~less ~lo ~hi pivot =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let m = !lo + ((!hi - !lo) / 2) in
    if less m pivot then lo := m + 1 else hi := m
  done;
  !lo

(* Multisequence selection under an arbitrary strict total order on
   positions: repeatedly pick the middle of the largest active interval
   as pivot, count the active elements strictly below it across all runs
   by binary search, and either commit everything below the pivot (and
   the pivot) under the cut or discard everything at or above it. The
   strict total order makes the rank-[rank] cut unique, so the loop
   converges like a quickselect over the union of the runs. *)
let split_at_rank_by ~less ~runs ~rank =
  let total = total_length runs in
  if rank < 0 || rank > total then invalid_arg "Multiway.split_at_rank_by";
  let k = Array.length runs in
  let lo = Array.map (fun r -> r.lo) runs in
  let hi = Array.map (fun r -> r.hi) runs in
  let remaining = ref rank in
  let cuts = Array.make k 0 in
  let finished = ref false in
  while not !finished do
    if !remaining = 0 then begin
      Array.blit lo 0 cuts 0 k;
      finished := true
    end
    else begin
      let active = ref 0 in
      for r = 0 to k - 1 do
        active := !active + (hi.(r) - lo.(r))
      done;
      if !active = !remaining then begin
        Array.blit hi 0 cuts 0 k;
        finished := true
      end
      else begin
        let rp = ref (-1) and best = ref 0 in
        for r = 0 to k - 1 do
          let len = hi.(r) - lo.(r) in
          if len > !best then begin
            best := len;
            rp := r
          end
        done;
        let p = lo.(!rp) + ((hi.(!rp) - lo.(!rp)) / 2) in
        let cnt = ref 0 in
        let c = Array.make k 0 in
        for r = 0 to k - 1 do
          let b = lower_bound_by ~less ~lo:lo.(r) ~hi:hi.(r) p in
          c.(r) <- b;
          cnt := !cnt + (b - lo.(r))
        done;
        if !cnt = !remaining then begin
          Array.blit c 0 cuts 0 k;
          finished := true
        end
        else if !cnt < !remaining then begin
          (* everything below the pivot plus the pivot itself is under
             the cut *)
          remaining := !remaining - !cnt - 1;
          Array.blit c 0 lo 0 k;
          lo.(!rp) <- p + 1
        end
        else Array.blit c 0 hi 0 k
      end
    end
  done;
  cuts

let split_at_rank ~src ~runs ~rank =
  let total = total_length runs in
  if rank < 0 || rank > total then invalid_arg "Multiway.split_at_rank";
  let k = Array.length runs in
  let cuts = Array.map (fun r -> r.lo) runs in
  if rank = 0 then cuts
  else if rank = total then Array.map (fun r -> r.hi) runs
  else begin
    (* Binary search over the value domain for the smallest value v with
       count_le(v) >= rank; counts are monotone in v. Midpoints computed
       overflow-safely (values may span the full int range). *)
    let vmin = ref max_int and vmax = ref min_int in
    Array.iter
      (fun { lo; hi } ->
        if lo < hi then begin
          if src.(lo) < !vmin then vmin := src.(lo);
          if src.(hi - 1) > !vmax then vmax := src.(hi - 1)
        end)
      runs;
    let count_less v =
      let acc = ref 0 in
      Array.iter (fun { lo; hi } -> acc := !acc + Bs.lower_bound src ~lo ~hi v - lo) runs;
      !acc
    in
    let count_le v =
      let acc = ref 0 in
      Array.iter (fun { lo; hi } -> acc := !acc + Bs.upper_bound src ~lo ~hi v - lo) runs;
      !acc
    in
    (* floor((lo + hi) / 2) without overflow: [asr] rounds down, where
       [/] rounds negative halves up and could return [hi], which never
       shrinks the interval *)
    let mid lo hi = (lo asr 1) + (hi asr 1) + (lo land hi land 1) in
    let lo = ref !vmin and hi = ref !vmax in
    while !lo < !hi do
      let m = mid !lo !hi in
      if count_le m >= rank then hi := m else lo := m + 1
    done;
    let v = !lo in
    let below = count_less v in
    (* Take all elements < v, then distribute the remaining (rank - below)
       equal-to-v elements across runs in run order (the stable tie-break). *)
    let remaining = ref (rank - below) in
    assert (!remaining >= 0);
    for r = 0 to k - 1 do
      let { lo; hi } = runs.(r) in
      let first_eq = Bs.lower_bound src ~lo ~hi v in
      let past_eq = Bs.upper_bound src ~lo ~hi v in
      let take = Int.min !remaining (past_eq - first_eq) in
      cuts.(r) <- first_eq + take;
      remaining := !remaining - take
    done;
    assert (!remaining = 0);
    cuts
  end
