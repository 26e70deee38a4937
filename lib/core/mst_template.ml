(* The width-polymorphic merge sort tree (paper §4, §5.1).

   The paper's §5.1 storage layout is a per-integer-width template: every
   MST operand is rank-encoded into a dense integer domain, so the tree is
   instantiated at the narrowest width that fits. This functor holds the
   single copy of the build and query logic; {!Mst}, {!Mst_compact} and
   {!Mst16} instantiate it over the storages of {!Mst_storage}. Narrow
   widths build *directly* into their narrow level/cursor buffers — no
   64-bit tree is materialised first, so peak memory is the narrow tree
   alone and build-phase memory traffic is halved (resp. quartered)
   relative to the historical build-then-convert path.

   Levels are merged with a tournament (loser) tree rather than a binary
   heap: exactly ⌈log₂ fanout⌉ comparisons per emitted element instead of
   the heap's ~2·log₂ fanout, and the scratch state is reused across all
   runs of a build task instead of being reallocated per run. *)

module Task_pool = Holistic_parallel.Task_pool

module Make (S : Mst_storage.S) = struct
  type t = {
    n : int;
    fanout : int;
    sample : int;
    levels : S.buf array;
    (* payloads.(j).(i) = base position the element levels.(j).(i) came
       from; positions stay native ints at every width *)
    payloads : int array array option;
    (* stride.(j) = fanout^j, the nominal run length of level j *)
    stride : int array;
    (* cursors.(j) holds the sampled merge-cursor states of level j+1's
       runs: for the run with index r at level j+1 and sampled position s (a
       multiple of [sample]), entry [(r * spr.(j) + s / sample) * fanout + c]
       is the number of elements of child c (at level j) among the first s
       elements of the run. Empty when [sample = 0]. *)
    cursors : S.buf array;
    (* spr.(j) = sampled states per run of level j+1 *)
    spr : int array;
  }

  let length t = t.n
  let fanout t = t.fanout
  let sample t = t.sample
  let levels t = t.levels
  let cursors t = t.cursors
  let stride t = t.stride
  let spr t = t.spr
  let payloads t = t.payloads

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)
  (* ------------------------------------------------------------------ *)

  (* Loser-tree merge scratch, sized once per build task for the maximum
     child count and reused across the task's runs. *)
  type scratch = {
    cur : int array; (* relative cursor into each child *)
    cbase : int array; (* absolute start of each child's source segment *)
    clen : int array; (* length of each child's source segment *)
    lval : int array; (* current head value per leaf *)
    lkey : int array; (* tie-break key: child index, or kk + c once exhausted *)
    node : int array; (* node.(1..kk-1): losing leaf of each internal match *)
    winners : int array; (* tournament initialisation workspace *)
  }

  let make_scratch fanout =
    let kk = ref 1 in
    while !kk < fanout do
      kk := !kk * 2
    done;
    let kk = !kk in
    {
      cur = Array.make fanout 0;
      cbase = Array.make fanout 0;
      clen = Array.make fanout 0;
      lval = Array.make kk 0;
      lkey = Array.make kk 0;
      node = Array.make kk 0;
      winners = Array.make (2 * kk) 0;
    }

  (* Merge the children of one output run of level [j] (children live at
     level [j - 1], have nominal length [child_stride] and tile [run_base,
     run_base + run_len)), writing the sorted output and recording cursor
     states. Exhausted leaves sit at (max_int, kk + c): a live leaf holding
     a genuine max_int still wins its ties because its key stays below kk.

     [src]/[dst]/[cursors] are plain [int array] views of the level and
     cursor storage, globally indexed — either the storage itself (word
     width) or the shared wide shadows narrowed after the task completes
     (narrow widths). Keeping the per-element loop on [int array] is what
     makes one template serve every width without a functor-indirected call
     per element (no flambda). *)
  let merge_one_run ~sc ~src ~src_payload ~dst ~dst_payload ~cursors ~state_base ~fanout ~sample
      ~run_base ~run_len ~child_stride =
    let nc = ((run_len - 1) / child_stride) + 1 in
    let kk = ref 1 in
    while !kk < nc do
      kk := !kk * 2
    done;
    let kk = !kk in
    let cur = sc.cur and cbase = sc.cbase and clen = sc.clen in
    let lval = sc.lval and lkey = sc.lkey and node = sc.node in
    let sbase = run_base and dbase = run_base in
    for c = 0 to kk - 1 do
      if c < nc then begin
        let len = Int.min child_stride (run_len - (c * child_stride)) in
        cur.(c) <- 0;
        cbase.(c) <- sbase + (c * child_stride);
        clen.(c) <- len;
        if len > 0 then begin
          lval.(c) <- src.(sbase + (c * child_stride));
          lkey.(c) <- c
        end
        else begin
          lval.(c) <- max_int;
          lkey.(c) <- kk + c
        end
      end
      else begin
        lval.(c) <- max_int;
        lkey.(c) <- kk + c
      end
    done;
    let less a b = lval.(a) < lval.(b) || (lval.(a) = lval.(b) && lkey.(a) < lkey.(b)) in
    (* initial tournament: winners bubble up, losers stick to the nodes *)
    let w = sc.winners in
    for c = 0 to kk - 1 do
      w.(kk + c) <- c
    done;
    for i = kk - 1 downto 1 do
      let a = w.(2 * i) and b = w.((2 * i) + 1) in
      if less a b then begin
        w.(i) <- a;
        node.(i) <- b
      end
      else begin
        w.(i) <- b;
        node.(i) <- a
      end
    done;
    let winner = ref (if kk = 1 then 0 else w.(1)) in
    let winner_val = ref lval.(!winner) in
    (* cursor states are recorded every [sample] elements; a countdown
       avoids a division per emitted element, and states land sequentially
       from [state_base] *)
    let state = ref state_base in
    let until_record = ref 0 in
    for emitted = 0 to run_len - 1 do
      if sample > 0 then begin
        if !until_record = 0 then begin
          let b = !state in
          for c = 0 to nc - 1 do
            Array.unsafe_set cursors (b + c) (Array.unsafe_get cur c)
          done;
          state := b + fanout;
          until_record := sample
        end;
        decr until_record
      end;
      let c = !winner in
      Array.unsafe_set dst (dbase + emitted) !winner_val;
      (match src_payload, dst_payload with
      | Some sp, Some dp ->
          Array.unsafe_set dp (run_base + emitted)
            (Array.unsafe_get sp (Array.unsafe_get cbase c + Array.unsafe_get cur c))
      | _ -> ());
      let cc = Array.unsafe_get cur c + 1 in
      Array.unsafe_set cur c cc;
      if cc < Array.unsafe_get clen c then
        Array.unsafe_set lval c (Array.unsafe_get src (Array.unsafe_get cbase c + cc))
      else begin
        Array.unsafe_set lval c max_int;
        Array.unsafe_set lkey c (kk + c)
      end;
      (* replay the matches on the path from leaf [c] to the root; the
         running winner's (value, key) ride in registers, arrays are only
         read for the stored losers *)
      let wc = ref c in
      let wv = ref (Array.unsafe_get lval c) in
      let wk = ref (Array.unsafe_get lkey c) in
      let i = ref ((kk + c) lsr 1) in
      while !i >= 1 do
        let l = Array.unsafe_get node !i in
        let lv = Array.unsafe_get lval l in
        if lv < !wv || (lv = !wv && Array.unsafe_get lkey l < !wk) then begin
          Array.unsafe_set node !i !wc;
          wc := l;
          wv := lv;
          wk := Array.unsafe_get lkey l
        end;
        i := !i lsr 1
      done;
      winner := !wc;
      winner_val := !wv
    done;
    (* trailing state at position [run_len], present iff it is a sample
       multiple (countdown hits zero exactly then) *)
    if sample > 0 && !until_record = 0 then begin
      let b = !state in
      for c = 0 to nc - 1 do
        Array.unsafe_set cursors (b + c) (Array.unsafe_get cur c)
      done
    end

  (* [merge_one_run] over accessor closures instead of [int array] views:
     the out-of-core build path, where neither the wide shadows nor a
     materialised operand array exist. [src_get] reads level j-1 straight
     from storage; [dst_put]/[cur_put] are sequential buffered writers
     into level j / its cursor states. Merge logic, tie-breaking and
     sampled-state placement are identical to [merge_one_run], so the
     output is bit-identical; only the element transport differs. *)
  let merge_one_run_gen ~sc ~src_get ~dst_put ~cur_put ~state_base ~fanout ~sample ~run_base
      ~run_len ~child_stride =
    let nc = ((run_len - 1) / child_stride) + 1 in
    let kk = ref 1 in
    while !kk < nc do
      kk := !kk * 2
    done;
    let kk = !kk in
    let cur = sc.cur and cbase = sc.cbase and clen = sc.clen in
    let lval = sc.lval and lkey = sc.lkey and node = sc.node in
    let sbase = run_base and dbase = run_base in
    for c = 0 to kk - 1 do
      if c < nc then begin
        let len = Int.min child_stride (run_len - (c * child_stride)) in
        cur.(c) <- 0;
        cbase.(c) <- sbase + (c * child_stride);
        clen.(c) <- len;
        if len > 0 then begin
          lval.(c) <- src_get (sbase + (c * child_stride));
          lkey.(c) <- c
        end
        else begin
          lval.(c) <- max_int;
          lkey.(c) <- kk + c
        end
      end
      else begin
        lval.(c) <- max_int;
        lkey.(c) <- kk + c
      end
    done;
    let less a b = lval.(a) < lval.(b) || (lval.(a) = lval.(b) && lkey.(a) < lkey.(b)) in
    let w = sc.winners in
    for c = 0 to kk - 1 do
      w.(kk + c) <- c
    done;
    for i = kk - 1 downto 1 do
      let a = w.(2 * i) and b = w.((2 * i) + 1) in
      if less a b then begin
        w.(i) <- a;
        node.(i) <- b
      end
      else begin
        w.(i) <- b;
        node.(i) <- a
      end
    done;
    let winner = ref (if kk = 1 then 0 else w.(1)) in
    let winner_val = ref lval.(!winner) in
    let state = ref state_base in
    let until_record = ref 0 in
    for emitted = 0 to run_len - 1 do
      if sample > 0 then begin
        if !until_record = 0 then begin
          let b = !state in
          for c = 0 to nc - 1 do
            cur_put (b + c) (Array.unsafe_get cur c)
          done;
          state := b + fanout;
          until_record := sample
        end;
        decr until_record
      end;
      let c = !winner in
      dst_put (dbase + emitted) !winner_val;
      let cc = Array.unsafe_get cur c + 1 in
      Array.unsafe_set cur c cc;
      if cc < Array.unsafe_get clen c then
        Array.unsafe_set lval c (src_get (Array.unsafe_get cbase c + cc))
      else begin
        Array.unsafe_set lval c max_int;
        Array.unsafe_set lkey c (kk + c)
      end;
      let wc = ref c in
      let wv = ref (Array.unsafe_get lval c) in
      let wk = ref (Array.unsafe_get lkey c) in
      let i = ref ((kk + c) lsr 1) in
      while !i >= 1 do
        let l = Array.unsafe_get node !i in
        let lv = Array.unsafe_get lval l in
        if lv < !wv || (lv = !wv && Array.unsafe_get lkey l < !wk) then begin
          Array.unsafe_set node !i !wc;
          wc := l;
          wv := lv;
          wk := Array.unsafe_get lkey l
        end;
        i := !i lsr 1
      done;
      winner := !wc;
      winner_val := !wv
    done;
    if sample > 0 && !until_record = 0 then begin
      let b = !state in
      for c = 0 to nc - 1 do
        cur_put (b + c) (Array.unsafe_get cur c)
      done
    end

  let create ?pool ?(fanout = 32) ?(sample = 32) ?(track_payload = false) a =
    if fanout < 2 then invalid_arg (S.name ^ ".create: fanout must be >= 2");
    if sample < 0 then invalid_arg (S.name ^ ".create: sample must be >= 0");
    let pool = match pool with Some p -> p | None -> Task_pool.default () in
    let n = Array.length a in
    if n > S.max_value then
      invalid_arg
        (Printf.sprintf "%s.create: length %d exceeds %d-bit storage" S.name n S.width_bits);
    let range_msg =
      Printf.sprintf "%s.create: value exceeds %d-bit storage range" S.name S.width_bits
    in
    (* Number of levels above the base: smallest h with fanout^h >= n. *)
    let h = ref 0 in
    let s = ref 1 in
    while !s < n do
      s := !s * fanout;
      incr h
    done;
    let h = !h in
    let stride = Array.make (h + 1) 1 in
    for j = 1 to h do
      stride.(j) <- stride.(j - 1) * fanout
    done;
    let levels =
      Array.init (h + 1) (fun j -> if j = 0 then S.of_int_array ~msg:range_msg a else S.create n)
    in
    let payloads =
      if track_payload then
        Some
          (Array.init (h + 1) (fun j ->
               if j = 0 then Array.init n (fun i -> i) else Array.make n 0))
      else None
    in
    let spr = Array.make h 0 in
    let states = Array.make h 0 in
    let cursors =
      Array.init h (fun j ->
          if sample = 0 then S.create 0
          else begin
            let run_len = Int.min stride.(j + 1) n in
            let nruns = if n = 0 then 0 else ((n - 1) / stride.(j + 1)) + 1 in
            spr.(j) <- (run_len / sample) + 1;
            states.(j) <- nruns * spr.(j) * fanout;
            S.create states.(j)
          end)
    in
    (* Narrow widths merge through shared full-width shadow buffers so the
       per-element loop stays on plain [int array]s (§5.1 template, no
       flambda): level j's output is produced wide and narrowed into storage
       span-by-span while each task's output is still cache-warm, then
       serves as the next level's wide source. Level 0's wide view is the
       (already validated) input itself, so no widening pass ever runs. The
       shadows are transient and span 2n + max-states words — far below the
       full 64-bit tree the historical build-then-convert path kept live.
       Word-width storage exposes its arrays directly and skips all of
       this. *)
    let narrow = n > 0 && S.as_ints levels.(0) = None in
    let sequential = Task_pool.size pool = 1 || n <= Task_pool.default_task_size in
    let shadow_a = if narrow && h >= 1 then Array.make n 0 else [||] in
    let shadow_b = if narrow && h >= 2 then Array.make n 0 else [||] in
    let shadow_c =
      if narrow && sample > 0 && h >= 1 then Array.make (Array.fold_left Int.max 0 states) 0
      else [||]
    in
    for j = 1 to h do
      let l = stride.(j) in
      let nruns = ((n - 1) / l) + 1 in
      let src = levels.(j - 1) and dst = levels.(j) in
      let src_payload = Option.map (fun p -> p.(j - 1)) payloads in
      let dst_payload = Option.map (fun p -> p.(j)) payloads in
      let spr_j = if sample = 0 then 0 else spr.(j - 1) in
      let sarr, darr, carr =
        if not narrow then
          ( Option.get (S.as_ints src),
            Option.get (S.as_ints dst),
            if sample = 0 then [||] else Option.get (S.as_ints cursors.(j - 1)) )
        else
          ( (if j = 1 then a else if j land 1 = 0 then shadow_a else shadow_b),
            (if j land 1 = 1 then shadow_a else shadow_b),
            shadow_c )
      in
      (* [merge_runs rlo rhi] merges runs [rlo, rhi) of this level — the
         independent unit of work: one scratch per call, shared by all its
         runs, and (on narrow widths) a narrowing blit of exactly the span
         the calls' runs produced, done while that output is still
         cache-warm. *)
      let merge_runs rlo rhi =
        let sc = make_scratch fanout in
        for r = rlo to rhi - 1 do
          let run_base = r * l in
          let run_len = Int.min l (n - run_base) in
          merge_one_run ~sc ~src:sarr ~src_payload ~dst:darr ~dst_payload ~cursors:carr
            ~state_base:(r * spr_j * fanout)
            ~fanout ~sample ~run_base ~run_len ~child_stride:stride.(j - 1)
        done;
        if narrow then begin
          let span_base = rlo * l in
          let span_len = Int.min (rhi * l) n - span_base in
          S.blit_from_ints darr ~pos:span_base dst ~dst_pos:span_base ~len:span_len;
          if sample > 0 then begin
            let state_lo = rlo * spr_j * fanout in
            let state_len = Int.min (rhi * spr_j * fanout) states.(j - 1) - state_lo in
            S.blit_from_ints carr ~pos:state_lo cursors.(j - 1) ~dst_pos:state_lo
              ~len:state_len
          end
        end
      in
      (* Runs are independent, so above the sequential cutoff whole runs
         are grouped into tasks of roughly the pool's task size; tasks
         touch disjoint spans of the shadows, and the pool joins between
         levels.  Below the cutoff (a tree under one task's worth of rows
         — the common per-partition case, often itself built from inside a
         partition morsel) the task machinery is skipped entirely so the
         small-tree constant factor stays at the sequential build's. *)
      if sequential then merge_runs 0 nruns
      else begin
        let runs_per_task = Int.max 1 (Task_pool.default_task_size / l) in
        Task_pool.parallel_for pool ~lo:0 ~hi:nruns ~chunk:runs_per_task merge_runs
      end
    done;
    { n; fanout; sample; levels; payloads; stride; cursors; spr }

  (* ------------------------------------------------------------------ *)
  (* Streamed (out-of-core) construction                                 *)
  (* ------------------------------------------------------------------ *)

  (* Chunk size of the streamed build's transient buffers: the leaf fill
     chunk and each level's write-behind buffers. *)
  let stream_chunk = 65536

  let create_stream ?(fanout = 32) ?(sample = 32) ~n ~fill () =
    if fanout < 2 then invalid_arg (S.name ^ ".create_stream: fanout must be >= 2");
    if sample < 0 then invalid_arg (S.name ^ ".create_stream: sample must be >= 0");
    if n < 0 then invalid_arg (S.name ^ ".create_stream: negative length");
    if n > S.max_value then
      invalid_arg
        (Printf.sprintf "%s.create_stream: length %d exceeds %d-bit storage" S.name n S.width_bits);
    let range_msg =
      Printf.sprintf "%s.create_stream: value exceeds %d-bit storage range" S.name S.width_bits
    in
    let h = ref 0 in
    let s = ref 1 in
    while !s < n do
      s := !s * fanout;
      incr h
    done;
    let h = !h in
    let stride = Array.make (h + 1) 1 in
    for j = 1 to h do
      stride.(j) <- stride.(j - 1) * fanout
    done;
    let levels = Array.init (h + 1) (fun _ -> S.create n) in
    let spr = Array.make h 0 in
    let states = Array.make h 0 in
    let cursors =
      Array.init h (fun j ->
          if sample = 0 then S.create 0
          else begin
            let run_len = Int.min stride.(j + 1) n in
            let nruns = if n = 0 then 0 else ((n - 1) / stride.(j + 1)) + 1 in
            spr.(j) <- (run_len / sample) + 1;
            states.(j) <- nruns * spr.(j) * fanout;
            S.create states.(j)
          end)
    in
    (* cursor storage is only partially covered by real states (nc <=
       fanout slots per state); [create]'s paths leave the rest zero, so
       pre-zero it here for bit-identical buffers *)
    let zero_fill dst =
      let len = S.length dst in
      if len > 0 then begin
        let z = Array.make (Int.min stream_chunk len) 0 in
        let p = ref 0 in
        while !p < len do
          let l = Int.min (Array.length z) (len - !p) in
          S.blit_from_ints z ~pos:0 dst ~dst_pos:!p ~len:l;
          p := !p + l
        done
      end
    in
    Array.iter zero_fill cursors;
    (* stream the leaves in chunks, validating the range that
       [blit_from_ints] deliberately does not *)
    if n > 0 then begin
      let chunk = Array.make (Int.min stream_chunk n) 0 in
      let pos = ref 0 in
      while !pos < n do
        let len = Int.min (Array.length chunk) (n - !pos) in
        fill chunk ~pos:!pos ~len;
        for i = 0 to len - 1 do
          let v = Array.unsafe_get chunk i in
          if v < S.min_value || v > S.max_value then invalid_arg range_msg
        done;
        S.blit_from_ints chunk ~pos:0 levels.(0) ~dst_pos:!pos ~len;
        pos := !pos + len
      done
    end;
    (* write-behind buffered storage writer: indices must be
       non-decreasing; unwritten slots inside a flushed span go out as
       zeros (matching [create]'s zeroed gaps) *)
    let make_writer dst =
      let wcap = Int.min stream_chunk (Int.max 1 (S.length dst)) in
      let buf = Array.make wcap 0 in
      let base = ref (-1) and hi = ref 0 in
      let flush () =
        if !base >= 0 && !hi > !base then
          S.blit_from_ints buf ~pos:0 dst ~dst_pos:!base ~len:(!hi - !base);
        base := -1
      in
      let put idx v =
        if !base < 0 || idx - !base >= wcap then begin
          flush ();
          Array.fill buf 0 wcap 0;
          base := idx;
          hi := idx
        end;
        buf.(idx - !base) <- v;
        if idx + 1 > !hi then hi := idx + 1
      in
      (put, flush)
    in
    let sc = make_scratch fanout in
    for j = 1 to h do
      let l = stride.(j) in
      let nruns = ((n - 1) / l) + 1 in
      let src = levels.(j - 1) in
      let src_get i = S.get src i in
      let dst_put, dst_flush = make_writer levels.(j) in
      let cur_put, cur_flush =
        if sample = 0 then ((fun _ _ -> ()), fun () -> ()) else make_writer cursors.(j - 1)
      in
      let spr_j = if sample = 0 then 0 else spr.(j - 1) in
      for r = 0 to nruns - 1 do
        let run_base = r * l in
        let run_len = Int.min l (n - run_base) in
        merge_one_run_gen ~sc ~src_get ~dst_put ~cur_put
          ~state_base:(r * spr_j * fanout)
          ~fanout ~sample ~run_base ~run_len ~child_stride:stride.(j - 1)
      done;
      dst_flush ();
      cur_flush ()
    done;
    { n; fanout; sample; levels; payloads = None; stride; cursors; spr }

  (* ------------------------------------------------------------------ *)
  (* Run-stacking append (incremental maintenance)                       *)
  (* ------------------------------------------------------------------ *)

  (* [append t a] produces the tree [create a] without re-merging the runs
     that [create] would rebuild identically: a level-[j] run whose span
     lies entirely inside the old prefix has the same leaves, hence the
     same sorted content and the same sampled cursor states, so it is
     blitted from the old tree; only the runs overlapping the appended
     suffix [t.n, |a|) — at most one partial run per level, plus the runs
     the new rows create — go through {!merge_one_run}. This is the
     run-stacking shape of DuckDB's WindowDistinctSortTree [build_level]/
     [build_run] machinery: appended rows stack up as side runs and are
     merged into a level only once the level's stride covers them.

     Returns [None] (caller rebuilds from scratch) when the tree tracks
     payloads, when [a] shrank or no longer starts with the old leaves, or
     when the new size overflows the storage width. The result is
     bit-identical to [create a] by construction: stable runs are copies,
     re-merged runs feed the same deterministic merge the full build runs.

     The maintenance pass works on wide ([int array]) levels and re-encodes
     at the end — the same transient-shadow discipline as [create], and the
     stable-run blits are memcpy-speed against the full build's loser-tree
     merges, so maintenance cost is dominated by the re-merged suffix. *)
  let append t a =
    let n_old = t.n and n = Array.length a in
    if t.payloads <> None || n < n_old || n > S.max_value then None
    else begin
      let prefix_ok = ref true in
      let l0 = t.levels.(0) in
      (try
         for i = 0 to n_old - 1 do
           if S.get l0 i <> Array.unsafe_get a i then begin
             prefix_ok := false;
             raise Exit
           end
         done
       with Exit -> ());
      if not !prefix_ok then None
      else begin
        let fanout = t.fanout and sample = t.sample in
        let h = ref 0 in
        let s = ref 1 in
        while !s < n do
          s := !s * fanout;
          incr h
        done;
        let h = !h in
        let stride = Array.make (h + 1) 1 in
        for j = 1 to h do
          stride.(j) <- stride.(j - 1) * fanout
        done;
        let levels = Array.make (h + 1) [||] in
        levels.(0) <- Array.copy a;
        let spr = Array.make h 0 in
        let cursors =
          Array.init h (fun j ->
              if sample = 0 then [||]
              else begin
                let run_len = Int.min stride.(j + 1) n in
                let nruns = if n = 0 then 0 else ((n - 1) / stride.(j + 1)) + 1 in
                spr.(j) <- (run_len / sample) + 1;
                Array.make (nruns * spr.(j) * fanout) 0
              end)
        in
        let h_old = Array.length t.levels - 1 in
        let sc = make_scratch fanout in
        for j = 1 to h do
          levels.(j) <- Array.make n 0;
          let l = stride.(j) in
          let nruns = ((n - 1) / l) + 1 in
          let spr_j = if sample = 0 then 0 else spr.(j - 1) in
          let src = levels.(j - 1) and dst = levels.(j) in
          let carr = if sample = 0 then [||] else cursors.(j - 1) in
          for r = 0 to nruns - 1 do
            let run_base = r * l in
            let run_len = Int.min l (n - run_base) in
            if j <= h_old && run_len = l && run_base + l <= n_old then begin
              (* stable run: same leaves, same merge → copy values and
                 sampled cursor states verbatim from the old tree *)
              (match S.as_ints t.levels.(j) with
              | Some old -> Array.blit old run_base dst run_base run_len
              | None ->
                  for i = run_base to run_base + run_len - 1 do
                    dst.(i) <- S.get t.levels.(j) i
                  done);
              if sample > 0 then begin
                let sb = r * spr_j * fanout in
                let slen = spr_j * fanout in
                match S.as_ints t.cursors.(j - 1) with
                | Some oldc -> Array.blit oldc sb carr sb slen
                | None ->
                    for i = sb to sb + slen - 1 do
                      carr.(i) <- S.get t.cursors.(j - 1) i
                    done
              end
            end
            else
              merge_one_run ~sc ~src ~src_payload:None ~dst ~dst_payload:None ~cursors:carr
                ~state_base:(r * spr_j * fanout)
                ~fanout ~sample ~run_base ~run_len ~child_stride:stride.(j - 1)
          done
        done;
        let msg =
          Printf.sprintf "%s.append: value exceeds %d-bit storage range" S.name S.width_bits
        in
        match
          {
            n;
            fanout;
            sample;
            levels = Array.map (fun l -> S.of_int_array ~msg l) levels;
            payloads = None;
            stride;
            cursors = Array.map (fun c -> S.of_int_array ~msg c) cursors;
            spr;
          }
        with
        | t' -> Some t'
        | exception Invalid_argument _ -> None
      end
    end

  (* Re-encode an already-built tree's raw 64-bit representation (the
     historical {!Mst_compact.of_mst} conversion path, kept for comparison
     benchmarks). *)
  let of_int_internals ~msg ~n ~fanout ~sample ~levels ~cursors ~stride ~spr =
    {
      n;
      fanout;
      sample;
      levels = Array.map (fun l -> S.of_int_array ~msg l) levels;
      payloads = None;
      stride = Array.copy stride;
      cursors = Array.map (fun c -> S.of_int_array ~msg c) cursors;
      spr = Array.copy spr;
    }

  (* ------------------------------------------------------------------ *)
  (* Cascaded child positions                                            *)
  (* ------------------------------------------------------------------ *)

  (* Every query descends the same way: a probe value's position [pos] in
     the sorted run of a node at level [j] fixes its position in each child
     run at level [j - 1]. The sampled cursor state at s = ⌊pos/k⌋·k bounds
     the answer to a window of [pos - s < k] elements (§4.2). The state's
     slot and that slack depend only on the node and [pos], so the
     descents compute them once per node and hand them, with the node's
     level arrays, to the storage's [S.child_pos] kernel: one call per
     child per bound. Without cascading the slot is -1 and the slack
     unbounded, so the kernel searches the whole child run.

     At level 1 every child is a single leaf, so the descents stop there
     and finish with a scan of the node's leaves in level 0
     ([S.leaf_count], [S.leaf_select]) instead of a cascade step per
     leaf. *)

  let cursor_slot t j run_base pos =
    if t.sample = 0 then -1
    else ((run_base / t.stride.(j) * t.spr.(j - 1)) + (pos / t.sample)) * t.fanout

  let slack_of t pos = if t.sample = 0 then max_int else pos mod t.sample

  (* ------------------------------------------------------------------ *)
  (* Counting                                                            *)
  (* ------------------------------------------------------------------ *)

  (* Count of positions in [lo, hi) inside the node at level [j] spanning
     [run_base, run_base + run_len) whose value is below [less_than]; [pos]
     is [less_than]'s position in the node's run. Invariant: [lo, hi)
     intersects but does not contain the node. *)
  let rec descend_count t j run_base run_len pos lo hi less_than =
    if j = 1 then count_leaves t run_base run_len pos lo hi less_than
    else descend_children t j run_base run_len pos lo hi less_than

  (* The level-1 finish: the children are leaves, so scan the smaller of
     the in-range leaves and their complement. *)
  and count_leaves t run_base run_len pos lo hi less_than =
    let run_end = run_base + run_len in
    let a = Int.max lo run_base and b = Int.min hi run_end in
    let l0 = t.levels.(0) in
    if 2 * (b - a) <= run_len then S.leaf_count l0 ~lo:a ~hi:b ~less_than
    else
      pos - S.leaf_count l0 ~lo:run_base ~hi:a ~less_than - S.leaf_count l0 ~lo:b ~hi:run_end ~less_than

  and descend_children t j run_base run_len pos lo hi less_than =
    let lc = t.stride.(j - 1) in
    let nc = ((run_len - 1) / lc) + 1 in
    let below = t.levels.(j - 1) and cur = t.cursors.(j - 1) in
    let slot = cursor_slot t j run_base pos and slack = slack_of t pos in
    let c_first = if lo <= run_base then 0 else (lo - run_base) / lc in
    let c_last = if hi >= run_base + run_len then nc - 1 else (hi - 1 - run_base) / lc in
    let inside = c_last - c_first + 1 in
    if 2 * inside <= nc + 2 then begin
      (* few children intersect: sum them directly *)
      let acc = ref 0 in
      for c = c_first to c_last do
        let child_base = run_base + (c * lc) in
        let child_len = Int.min lc (run_len - (c * lc)) in
        let cp = S.child_pos below cur ~slot ~slack ~v:less_than ~c ~base:child_base ~len:child_len in
        acc :=
          !acc
          + if lo <= child_base && child_base + child_len <= hi then cp
            else descend_count t (j - 1) child_base child_len cp lo hi less_than
      done;
      !acc
    end
    else begin
      (* most children are covered: start from the node's own count and
         subtract the children outside the range (the cheaper complement) *)
      let acc = ref pos in
      for c = 0 to c_first - 1 do
        acc :=
          !acc - S.child_pos below cur ~slot ~slack ~v:less_than ~c ~base:(run_base + (c * lc)) ~len:lc
      done;
      for c = c_last + 1 to nc - 1 do
        let child_base = run_base + (c * lc) in
        let child_len = Int.min lc (run_len - (c * lc)) in
        acc := !acc - S.child_pos below cur ~slot ~slack ~v:less_than ~c ~base:child_base ~len:child_len
      done;
      (* the boundary children may be partial *)
      acc := !acc + boundary_fix t j run_base run_len lo hi less_than below cur slot slack c_first;
      if c_last <> c_first then
        acc := !acc + boundary_fix t j run_base run_len lo hi less_than below cur slot slack c_last;
      !acc
    end

  (* In-range count of boundary child [c] minus its full count: the
     correction for a child the complement branch counted as covered. *)
  and boundary_fix t j run_base run_len lo hi less_than below cur slot slack c =
    let lc = t.stride.(j - 1) in
    let child_base = run_base + (c * lc) in
    let child_len = Int.min lc (run_len - (c * lc)) in
    if lo <= child_base && child_base + child_len <= hi then 0
    else begin
      let cp = S.child_pos below cur ~slot ~slack ~v:less_than ~c ~base:child_base ~len:child_len in
      descend_count t (j - 1) child_base child_len cp lo hi less_than - cp
    end

  let count t ~lo ~hi ~less_than =
    let lo = Int.max lo 0 and hi = Int.min hi t.n in
    if lo >= hi then 0
    else begin
      let h = Array.length t.levels - 1 in
      let pos = S.lower_bound t.levels.(h) ~lo:0 ~hi:t.n less_than in
      if lo = 0 && hi = t.n then pos else descend_count t h 0 t.n pos lo hi less_than
    end

  (* The flat form of a frame: range [i] is [\[bounds.(2i), bounds.(2i+1))],
     for [i < nr]. Callers keep one [bounds] array per task and refill it
     per row, so a probe allocates nothing. *)
  let count_bounds t ~bounds ~nr ~less_than =
    let acc = ref 0 in
    for i = 0 to nr - 1 do
      acc := !acc + count t ~lo:bounds.(2 * i) ~hi:bounds.((2 * i) + 1) ~less_than
    done;
    !acc

  (* The tuple form, kept for tests and benchmarks. *)
  let count_ranges t ~ranges ~less_than =
    let acc = ref 0 in
    for i = 0 to Array.length ranges - 1 do
      let lo, hi = ranges.(i) in
      acc := !acc + count t ~lo ~hi ~less_than
    done;
    !acc

  let rec descend_iter t j run_base run_len pos lo hi less_than f =
    let lc = t.stride.(j - 1) in
    let nc = ((run_len - 1) / lc) + 1 in
    let below = t.levels.(j - 1) and cur = t.cursors.(j - 1) in
    let slot = cursor_slot t j run_base pos and slack = slack_of t pos in
    for c = 0 to nc - 1 do
      let child_base = run_base + (c * lc) in
      let child_len = Int.min lc (run_len - (c * lc)) in
      if child_base < hi && child_base + child_len > lo then begin
        let cp = S.child_pos below cur ~slot ~slack ~v:less_than ~c ~base:child_base ~len:child_len in
        if lo <= child_base && child_base + child_len <= hi then
          f ~level:(j - 1) ~base:child_base ~prefix:cp
        else descend_iter t (j - 1) child_base child_len cp lo hi less_than f
      end
    done

  let iter_covered t ~lo ~hi ~less_than f =
    let lo = Int.max lo 0 and hi = Int.min hi t.n in
    if lo < hi then begin
      let h = Array.length t.levels - 1 in
      let pos = S.lower_bound t.levels.(h) ~lo:0 ~hi:t.n less_than in
      if lo = 0 && hi = t.n then f ~level:h ~base:0 ~prefix:pos
      else descend_iter t h 0 t.n pos lo hi less_than f
    end

  (* ------------------------------------------------------------------ *)
  (* Selection                                                           *)
  (* ------------------------------------------------------------------ *)

  let count_value_ranges t ~ranges =
    let top = t.levels.(Array.length t.levels - 1) in
    let acc = ref 0 in
    for r = 0 to Array.length ranges - 1 do
      let vlo, vhi = ranges.(r) in
      acc := !acc + S.lower_bound top ~lo:0 ~hi:t.n vhi - S.lower_bound top ~lo:0 ~hi:t.n vlo
    done;
    !acc

  let out_of_bounds nth total =
    invalid_arg (Printf.sprintf "%s.select: nth=%d out of bounds (%d qualifying)" S.name nth total)

  (* The frame case: one value range [vlo, vhi). The top level is searched
     once for both bounds; then each level down to 2 scans the current
     node's children, skipping whole children's qualifying counts until the
     one holding the [m]-th qualifying element, and steps into it. The
     whole cascade state — the node, both bounds' positions in its run and
     the rank still to skip — lives in loop-local refs. The level-1 node's
     leaves are then scanned for the [m]-th qualifying one. *)
  let select_one t vlo vhi nth =
    let n = t.n in
    let h = Array.length t.levels - 1 in
    let top = t.levels.(h) in
    let blo = ref (S.lower_bound top ~lo:0 ~hi:n vlo) in
    let bhi = ref (S.lower_bound top ~lo:0 ~hi:n vhi) in
    if nth < 0 || nth >= !bhi - !blo then out_of_bounds nth (!bhi - !blo);
    let run_base = ref 0 and run_len = ref n and m = ref nth in
    for j = h downto 2 do
      let lc = t.stride.(j - 1) in
      let below = t.levels.(j - 1) and cur = t.cursors.(j - 1) in
      let slot_lo = cursor_slot t j !run_base !blo and slack_lo = slack_of t !blo in
      let slot_hi = cursor_slot t j !run_base !bhi and slack_hi = slack_of t !bhi in
      let c = ref 0 and searching = ref true in
      while !searching do
        let child_base = !run_base + (!c * lc) in
        assert (child_base < !run_base + !run_len);
        let child_len = Int.min lc (!run_len - (!c * lc)) in
        let clo =
          S.child_pos below cur ~slot:slot_lo ~slack:slack_lo ~v:vlo ~c:!c ~base:child_base ~len:child_len
        in
        let chi =
          S.child_pos below cur ~slot:slot_hi ~slack:slack_hi ~v:vhi ~c:!c ~base:child_base ~len:child_len
        in
        if !m < chi - clo then begin
          run_base := child_base;
          run_len := child_len;
          blo := clo;
          bhi := chi;
          searching := false
        end
        else begin
          m := !m - (chi - clo);
          incr c
        end
      done
    done;
    S.leaf_select t.levels.(0) ~base:!run_base ~vlo ~vhi ~nth:!m

  (* The holed-frame case: the same descent over the 2·nr bounds of nr
     value ranges. Its one scratch array holds four rows of 2·nr ints:
     each bound's position in the current node's run (bound b is
     [bounds.(b)]) and in the child being scanned — the two rows swap
     roles on each step down — then each bound's cursor slot and slack in
     the current node. *)
  let select_many t bounds nr nth =
    let n = t.n in
    let h = Array.length t.levels - 1 in
    let top = t.levels.(h) in
    let nb = 2 * nr in
    let sc = Array.make (4 * nb) 0 in
    let total = ref 0 in
    for r = 0 to nr - 1 do
      let blo = S.lower_bound top ~lo:0 ~hi:n bounds.(2 * r)
      and bhi = S.lower_bound top ~lo:0 ~hi:n bounds.((2 * r) + 1) in
      sc.(2 * r) <- blo;
      sc.((2 * r) + 1) <- bhi;
      total := !total + bhi - blo
    done;
    if nth < 0 || nth >= !total then out_of_bounds nth !total;
    let node = ref 0 and child = ref nb and slots = 2 * nb and slacks = 3 * nb in
    let run_base = ref 0 and run_len = ref n and m = ref nth in
    for j = h downto 2 do
      let lc = t.stride.(j - 1) in
      let below = t.levels.(j - 1) and cur = t.cursors.(j - 1) in
      for b = 0 to nb - 1 do
        let p = sc.(!node + b) in
        sc.(slots + b) <- cursor_slot t j !run_base p;
        sc.(slacks + b) <- slack_of t p
      done;
      let c = ref 0 and searching = ref true in
      while !searching do
        let child_base = !run_base + (!c * lc) in
        assert (child_base < !run_base + !run_len);
        let child_len = Int.min lc (!run_len - (!c * lc)) in
        let qual = ref 0 in
        for b = 0 to nb - 1 do
          let cp =
            S.child_pos below cur ~slot:sc.(slots + b) ~slack:sc.(slacks + b) ~v:bounds.(b) ~c:!c
              ~base:child_base ~len:child_len
          in
          sc.(!child + b) <- cp;
          if b land 1 = 1 then qual := !qual + cp - sc.(!child + b - 1)
        done;
        if !m < !qual then begin
          let swap = !node in
          node := !child;
          child := swap;
          run_base := child_base;
          run_len := child_len;
          searching := false
        end
        else begin
          m := !m - !qual;
          incr c
        end
      done
    done;
    S.leaf_select_bounds t.levels.(0) ~base:!run_base ~bounds ~nr ~nth:!m

  let select_bounds t ~bounds ~nr ~nth =
    if nr = 1 then select_one t bounds.(0) bounds.(1) nth else select_many t bounds nr nth

  let flatten ranges =
    let bounds = Array.make (2 * Array.length ranges) 0 in
    Array.iteri
      (fun i (lo, hi) ->
        bounds.(2 * i) <- lo;
        bounds.((2 * i) + 1) <- hi)
      ranges;
    bounds

  (* The tuple form, kept for tests and benchmarks. *)
  let select t ~ranges ~nth =
    match ranges with
    | [| (vlo, vhi) |] -> select_one t vlo vhi nth
    | _ -> select_many t (flatten ranges) (Array.length ranges) nth

  (* ------------------------------------------------------------------ *)
  (* Statistics                                                          *)
  (* ------------------------------------------------------------------ *)

  type stats = {
    level_elements : int;
    cursor_elements : int;
    payload_elements : int;
    heap_bytes : int;
  }

  let stats t =
    let level_elements = Array.fold_left (fun acc l -> acc + S.length l) 0 t.levels in
    let cursor_elements = Array.fold_left (fun acc c -> acc + S.length c) 0 t.cursors in
    let payload_elements =
      match t.payloads with
      | None -> 0
      | Some p -> Array.fold_left (fun acc l -> acc + Array.length l) 0 p
    in
    {
      level_elements;
      cursor_elements;
      payload_elements;
      heap_bytes =
        (S.bytes_per_element * (level_elements + cursor_elements)) + (8 * payload_elements);
    }

  (* The memory-accounting contract (ISSUE 5): bytes held by the built
     structure.  Element storage dominates; per-array headers and the
     record itself are a few dozen words against megabytes of levels, so
     the exact-arithmetic element count is the footprint. *)
  let footprint_bytes t = (stats t).heap_bytes
end
