(* Host-speed unit, measured in-process at set-up: an int-sort rate and a
   sequential-scan rate (the primitives [bench/calibrate.ml] fits the cost
   model with), so per-layer ns/row can be compared across machines. *)

module Introsort = Holistic_sort.Introsort
module Rng = Holistic_util.Rng

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let now_ns = Holistic_obs.Obs.now_ns

let time_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

let sort_ns_per_key ?(keys = 100_000) ?(reps = 5) () =
  let rng = Rng.create 7 in
  let src = Array.init keys (fun _ -> Rng.int rng 1_000_000_000) in
  median
    (List.init reps (fun _ ->
         let a = Array.copy src in
         float_of_int (time_ns (fun () -> Introsort.sort a)) /. float_of_int keys))

let scan_ns_per_word ?(words = 1_000_000) ?(reps = 5) () =
  let a = Array.init words (fun i -> i land 1023) in
  median
    (List.init reps (fun _ ->
         float_of_int
           (time_ns (fun () ->
                let s = ref 0 in
                for i = 0 to words - 1 do
                  s := !s + Array.unsafe_get a i
                done;
                ignore (Sys.opaque_identity !s)))
         /. float_of_int words))

(* The speed reference for end-to-end times.  This machine's speed drifts
   by tens of percent over tens of seconds (shared cores), far more than
   the bounds a regression gate needs, so every timed operation is
   bracketed by this fixed kernel and its time is reported scaled by
   [reference_nominal_ns / kernel time].  The kernel mixes what the
   engine does — an in-place sort of an 8k-int array, a dependent random
   walk over 8 MiB and a short burst of small allocations.  It is written
   here and runs on domains the benchmark owns (never the engine's task
   pool), so no engine change can move it.  With [domains] > 1 one copy
   runs on each of that many domains at once, so its time reflects the
   same core contention the workload's own parallel work meets. *)
let reference_nominal_ns = 3_000_000.0

let kernel_src = Array.init 8_192 (fun i -> (i * 2_654_435_761) land 0xfffff)
let kernel_walk = Array.init (1 lsl 20) (fun i -> ((i * 1_664_525) + 1_013_904_223) land ((1 lsl 20) - 1))

module Int_map = Map.Make (Int)

(* one kernel; [buf] holds 8192 ints *)
let kernel buf =
  Array.blit kernel_src 0 buf 0 (Array.length buf);
  Array.sort (fun (a : int) b -> compare a b) buf;
  let p = ref 0 in
  for _ = 1 to 10_000 do
    p := Array.unsafe_get kernel_walk !p
  done;
  let m = ref Int_map.empty in
  for i = 0 to 4_095 do
    m := Int_map.add (Array.unsafe_get kernel_src i) i !m
  done;
  ignore (Sys.opaque_identity (!p, !m))

(* The kernel's helper domains, spawned once and kept for the run: each
   waits for the next round, runs one kernel and reports back. *)
type crew = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable round : int;
  mutable finished : int;
  mutable stop : bool;
  mutable helpers : unit Domain.t list;
  bufs : int array array;  (** one per domain; the caller's is [bufs.(0)] *)
}

let helper crew i =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock crew.lock;
    while crew.round = !seen && not crew.stop do
      Condition.wait crew.cond crew.lock
    done;
    let stop = crew.stop in
    seen := crew.round;
    Mutex.unlock crew.lock;
    if not stop then begin
      kernel crew.bufs.(i);
      Mutex.lock crew.lock;
      crew.finished <- crew.finished + 1;
      Condition.broadcast crew.cond;
      Mutex.unlock crew.lock;
      loop ()
    end
  in
  loop ()

let create_crew domains =
  let crew =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      round = 0;
      finished = 0;
      stop = false;
      helpers = [];
      bufs = Array.init domains (fun _ -> Array.make (Array.length kernel_src) 0);
    }
  in
  crew.helpers <- List.init (domains - 1) (fun i -> Domain.spawn (fun () -> helper crew (i + 1)));
  crew

let crew = ref None

(* Start the kernel on [domains] domains; [stop_reference] joins them. *)
let start_reference ~domains = crew := Some (create_crew (max 1 domains))

let stop_reference () =
  match !crew with
  | None -> ()
  | Some c ->
      Mutex.lock c.lock;
      c.stop <- true;
      Condition.broadcast c.cond;
      Mutex.unlock c.lock;
      List.iter Domain.join c.helpers;
      crew := None

(* One round of the kernel on every domain of the crew; its wall time. *)
let reference_ns () =
  let c = match !crew with Some c -> c | None -> invalid_arg "Host.reference_ns: not started" in
  let helpers = List.length c.helpers in
  let t0 = now_ns () in
  if helpers > 0 then begin
    Mutex.lock c.lock;
    c.finished <- 0;
    c.round <- c.round + 1;
    Condition.broadcast c.cond;
    Mutex.unlock c.lock
  end;
  kernel c.bufs.(0);
  if helpers > 0 then begin
    Mutex.lock c.lock;
    while c.finished < helpers do
      Condition.wait c.cond c.lock
    done;
    Mutex.unlock c.lock
  end;
  now_ns () - t0

(* [ns] of work as it would have taken on the reference host *)
let normalize ns ~reference_ns = float_of_int ns *. reference_nominal_ns /. float_of_int (max 1 reference_ns)
