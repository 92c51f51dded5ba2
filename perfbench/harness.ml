(* Measurement plumbing shared by every workload: a nanosecond clock,
   process CPU and memory probes, sample buffers and order statistics,
   the span accounting of the traced mode, and the result line.

   Nothing on a measured path allocates here unless tracing is on:
   clock reads are unboxed ints, samples go into preallocated int
   arrays, and span bookkeeping lives in fixed arrays, so
   [alloc_b_per_event] counts the program's allocation and the
   workload's inputs, not the harness's. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let alloc_bytes () = Gc.allocated_bytes ()

(* Peak resident set (VmHWM) of this process, in MB. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    else scan ()
  in
  scan ()

(* A fixed integer loop, timed: printed beside each result so a reader
   can tell a slower machine from a slower program. Not a metric. *)
let reference_loop_ms () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let dt = now_ns () - t0 in
  if !x = 0 then prerr_endline "reference loop degenerated";
  float_of_int dt /. 1e6

(* --- deterministic input generation ------------------------------------- *)

(* A 62-bit mixer (splitmix-style finaliser on native ints): inputs are
   a pure function of (seed, index), so any record can be regenerated
   by the checker without storing it. *)
let mix a b =
  let z = (a * 0x1851F42D4C957F2D) + (b * 0x14057B7EF767814F) + 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x3C79AC492BA7B653 in
  let z = (z lxor (z lsr 32)) * 0x1C69B3F74AC4AE35 in
  (z lxor (z lsr 29)) land max_int

(* --- growable int sample buffers ------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let to_floats t = Array.init t.n (fun i -> float_of_int t.a.(i))
end

(* Linear-interpolated quantile of an unsorted sample array. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

(* Timings are reported as the best 2% of many short measurements
   (100 ms slices of the saturated segments, open-loop windows, store
   rounds), not their median. On the shared 2-core VM this benchmark
   was built on, the machine's speed switches between states every few
   seconds, and busy stretches can last a whole run: one run's slices
   read ~110k, ~128k or ~195k deliveries/s at constant per-event work
   and allocation, with an unchanged integer reference loop, and the
   share of a run spent in each state varies from run to run. The best
   2% reads the fastest state whenever a run passes through it at all;
   a best decile still follows the share. *)
let best xs ~higher = quantile xs (if higher then 0.98 else 0.02)

(* Latency percentiles per window of consecutive samples (at least
   [min] samples each, so a window's p99 has four beyond it). The
   workloads make as many windows as open-loop segments. The p50 is the best
   over windows, like every other timing (see [best]). The p99 is
   the median over windows: about one publish in seventy meets a minor
   collection, so a window's p99 sits at the edge of the pauses, and
   picking the quietest windows would pick the ones that happened to
   meet fewest of them. *)
let windowed_latency (s : Samples.t) ~windows ~min =
  let k = max 1 (Stdlib.min windows (s.Samples.n / min)) in
  let per = s.Samples.n / k in
  let p50 = Array.make k nan and p99 = Array.make k nan in
  for w = 0 to k - 1 do
    let xs = Array.init per (fun i -> float_of_int s.Samples.a.((w * per) + i)) in
    p50.(w) <- quantile xs 0.5;
    p99.(w) <- quantile xs 0.99
  done;
  (best p50 ~higher:false, median p99)

(* --- measurement slices --------------------------------------------------- *)

(* Saturated segments are cut into 100 ms wall-clock slices; rates and
   per-event costs are the best over slices (see [best]). *)
module Slices = struct
  type t = {
    slice_ns : int;
    mutable start_ns : int;
    mutable start_cpu : float;
    mutable start_events : int;
    mutable start_ops : int;
    rates : float Queue.t;  (* events per wall second *)
    op_rates : float Queue.t;  (* operations per wall second *)
    cpu_per_event : float Queue.t;  (* CPU seconds per event *)
  }

  let create ~slice_ms =
    {
      slice_ns = slice_ms * 1_000_000;
      start_ns = 0;
      start_cpu = 0.;
      start_events = 0;
      start_ops = 0;
      rates = Queue.create ();
      op_rates = Queue.create ();
      cpu_per_event = Queue.create ();
    }

  let start t ~events ~ops =
    t.start_ns <- now_ns ();
    t.start_cpu <- cpu_s ();
    t.start_events <- events;
    t.start_ops <- ops

  let push t ~now ~events ~ops =
    let cpu = cpu_s () in
    let de = events - t.start_events in
    if de > 0 then begin
      let w = secs_of_ns (now - t.start_ns) in
      Queue.push (float_of_int de /. w) t.rates;
      Queue.push (float_of_int (ops - t.start_ops) /. w) t.op_rates;
      Queue.push ((cpu -. t.start_cpu) /. float_of_int de) t.cpu_per_event
    end;
    t.start_ns <- now;
    t.start_cpu <- cpu;
    t.start_events <- events;
    t.start_ops <- ops

  (* Close the current slice if it is due, and open the next one. *)
  let tick t ~now ~events ~ops =
    if now - t.start_ns >= t.slice_ns then push t ~now ~events ~ops

  (* End a saturated segment: its last slice counts if it ran for at
     least a quarter of a slice. *)
  let stop t ~events ~ops =
    let now = now_ns () in
    if 4 * (now - t.start_ns) >= t.slice_ns then push t ~now ~events ~ops

  let best_of q ~higher = best (Array.of_seq (Queue.to_seq q)) ~higher
  let events_per_s t = best_of t.rates ~higher:true
  let ops_per_s t = best_of t.op_rates ~higher:true
  let cpu_us_per_event t = best_of t.cpu_per_event ~higher:false *. 1e6
end

(* --- traced mode: spans around calls into each layer ---------------------- *)

(* Each span charges its layer with self time and self allocation: the
   span's duration minus what the spans nested inside it took. Calls
   are bracketed with [enter]/[leave] rather than a closure so an
   untraced run allocates nothing for them. *)
let tracing = ref false

type layer = { mutable ns : int; mutable bytes : float }

let layer () = { ns = 0; bytes = 0. }

let reset_layer l =
  l.ns <- 0;
  l.bytes <- 0.

(* What some layers hold, to be put back after a stretch that is not
   measured. *)
let save ls = List.map (fun l -> (l, l.ns, l.bytes)) ls

let restore =
  List.iter (fun (l, ns, bytes) ->
      l.ns <- ns;
      l.bytes <- bytes)

(* The harness's own work inside a program call (a handler checking a
   delivery) is bracketed with this layer, so it is not charged to the
   call; the harness's total is what the program layers leave over. *)
let harness = layer ()

let max_depth = 16
let st_t0 = Array.make max_depth 0
let st_a0 = Array.make max_depth 0.
let st_child_ns = Array.make max_depth 0
let st_child_b = Array.make max_depth 0.
let depth = ref 0

(* The bytes one [alloc_bytes] probe allocates itself, measured once,
   so that span bookkeeping is not charged to the layer. *)
let probe_cost =
  lazy
    (let a = alloc_bytes () in
     let b = alloc_bytes () in
     b -. a)

let enter () =
  if !tracing then begin
    let d = !depth in
    st_child_ns.(d) <- 0;
    st_child_b.(d) <- 0.;
    depth := d + 1;
    st_a0.(d) <- alloc_bytes ();
    st_t0.(d) <- now_ns ()
  end

let leave l =
  if !tracing then begin
    let t1 = now_ns () in
    let a1 = alloc_bytes () in
    decr depth;
    let d = !depth in
    let dt = t1 - st_t0.(d) in
    let da = a1 -. st_a0.(d) -. Lazy.force probe_cost in
    l.ns <- l.ns + dt - st_child_ns.(d);
    l.bytes <- l.bytes +. da -. st_child_b.(d);
    if d > 0 then begin
      st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dt;
      st_child_b.(d - 1) <- st_child_b.(d - 1) +. da +. (2. *. Lazy.force probe_cost)
    end
  end

(* --- results --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The end-to-end metrics of the result line, in BENCHMARK.json order.
   latency_p99_us is computed and shown on the comment line, but is not
   one of them: it could not be kept steady (see README.md). *)
let end_to_end_names =
  [ "events_per_s"; "cpu_us_per_event"; "latency_p50_us"; "alloc_b_per_event";
    "rss_peak_mb"; "setup_s"; "append_per_s"; "recover_mb_per_s" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        (* names and units are plain identifiers: no escaping needed *)
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
          (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* What a workload hands back: its operation counts, every end-to-end
   metric, and the per-layer figures of a traced run by name. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : (string * float) list;
}
