type t = { prefix : int array; positions : int array; identity : bool }

let create ~np ~qualifies =
  let prefix = Array.make (np + 1) 0 in
  let count = ref 0 in
  for r = 0 to np - 1 do
    prefix.(r) <- !count;
    if qualifies r then incr count
  done;
  prefix.(np) <- !count;
  let positions = Array.make !count 0 in
  let j = ref 0 in
  for r = 0 to np - 1 do
    if prefix.(r + 1) > prefix.(r) then begin
      positions.(!j) <- r;
      incr j
    end
  done;
  { prefix; positions; identity = !count = np }

let all np =
  {
    prefix = Array.init (np + 1) (fun i -> i);
    positions = Array.init np (fun i -> i);
    identity = true;
  }

let footprint_bytes t =
  8 * (3 + 1 + Array.length t.prefix + 1 + Array.length t.positions)

let filtered_count t = Array.length t.positions
let count_before t r = t.prefix.(r)
let qualifies t r = t.prefix.(r + 1) > t.prefix.(r)
let position t i = t.positions.(i)

let map_range t (lo, hi) = if t.identity then (lo, hi) else (t.prefix.(lo), t.prefix.(hi))

let map_bounds t bounds nr =
  if t.identity then nr
  else begin
    let k = ref 0 in
    for i = 0 to nr - 1 do
      let lo = t.prefix.(bounds.(2 * i)) and hi = t.prefix.(bounds.((2 * i) + 1)) in
      if lo < hi then begin
        bounds.(2 * !k) <- lo;
        bounds.((2 * !k) + 1) <- hi;
        incr k
      end
    done;
    !k
  end
