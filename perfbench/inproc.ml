(* inproc: the in-process publish->handler path. One Pubsub.Domain on
   the simulated net with a filtering host (add_broker), a publisher
   and four subscriber processes holding the same 64 subscriptions as
   tcp-small. Publishes go out in batches and Engine.run drives the
   engine until it is quiescent. The net has no jitter, so per-origin
   order is defined and checked; it touches no sockets and no CRC. *)

module Pubsub = Tpbs_core.Pubsub
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Metric = Tpbs_sim.Metric
module Obvent = Tpbs_obvent.Obvent
module Factored = Tpbs_filter.Factored
module H = Harness

let shape = { Model.mixed = true; payload_len = 24 }
let subscribers = 4
let batch = 32
(* publishes per second at saturation on the reference machine: sizes
   the saturated segments (see Tcp.params) *)
let nominal_rate = 40_000.
let offered_rate = 8000.

(* checked publishes in each set-up *)
let warmup = 4000

let l_publish = H.layer ()
let l_engine = H.layer ()

type rig = {
  c : Model.checker;
  reg : Tpbs_types.Registry.t;
  domain : Pubsub.Domain.t;
  engine : Engine.t;
  pub : Pubsub.Process.t;
  mutable seq : int;  (* next publish *)
}

let publish r =
  let ob = Model.input r.c r.reg ~seq:r.seq in
  H.enter ();
  Pubsub.Process.publish r.pub ob;
  H.leave l_publish;
  r.seq <- r.seq + 1

let run_engine r =
  H.enter ();
  Engine.run r.engine;
  H.leave l_engine

(* Batches, each run to quiescence, until [target] publishes were made
   or [cap_ns] passes. *)
let batches r ~target ~cap_ns ~on_batch =
  let now = ref (H.now_ns ()) in
  while r.seq < target && !now < cap_ns do
    for _ = 1 to batch do publish r done;
    run_engine r;
    now := H.now_ns ();
    on_batch !now
  done

(* The domain, its processes and subscriptions, and a warm-up of
   [warmup] checked publishes, which also opens every channel. *)
let setup c =
  let reg = Model.registry () in
  let engine = Engine.create ~seed:1 () in
  let net = Net.create ~config:{ Net.default_config with jitter = 0 } engine in
  let domain = Pubsub.Domain.create reg net in
  let pub = Pubsub.Process.create domain (Net.add_node net) in
  let host = Pubsub.Process.create domain (Net.add_node net) in
  Pubsub.add_broker domain host;
  let subs =
    Array.init subscribers (fun _ -> Pubsub.Process.create domain (Net.add_node net))
  in
  Array.iteri
    (fun i spec ->
      Pubsub.Subscription.activate
        (Pubsub.Process.subscribe subs.(i mod subscribers) ~param:spec.Model.param
           ~filter:(Model.fspec spec) (Model.handler c i)))
    c.Model.specs;
  Engine.run engine;
  let r = { c; reg; domain; engine; pub; seq = 1 } in
  batches r ~target:(1 + warmup) ~cap_ns:max_int ~on_batch:ignore;
  r

let broker_evals d =
  match Pubsub.broker_filter_stats d with
  | Some st -> st.Factored.atom_evals
  | None -> 0

let run ~seed ~seconds ~fault =
  let specs = Model.population 64 in
  (* three set-ups per process, fifteen per run (see run.py): one takes
     ~0.1 s, and the machine's speed state switches several times a
     second, so a median of few would follow it *)
  let setups = ref [] and spent = ref [] in
  let last = ref None in
  for _ = 1 to 3 do
    Option.iter (fun r -> spent := r.c :: !spent) !last;
    let c = Model.checker ~seed ~fault shape specs in
    let t0 = H.now_ns () in
    let r = setup c in
    setups := H.secs_of_ns (H.now_ns () - t0) :: !setups;
    last := Some r
  done;
  let r = Option.get !last in
  let c = r.c in
  (* One round per second of run length: a saturated segment of fixed
     work, then an open-loop segment, so that both kinds of metric
     sample the whole run. *)
  let rounds = max 1 (int_of_float (Float.round seconds)) in
  let sat_n = int_of_float (0.55 *. nominal_rate) in
  let open_n = int_of_float (0.35 *. offered_rate) in
  let period_ns = int_of_float (1e9 /. offered_rate) in
  let layers = [ l_publish; l_engine ] in
  List.iter H.reset_layer layers;
  let measured = ref (H.save layers) in
  let evals = ref 0 and minor = ref 0 and major = ref 0 in
  let sl = H.Slices.create ~slice_ms:100 in
  let events = ref 0 and alloc = ref 0. and sat_ns = ref 0 in
  let lags = H.Samples.create (rounds * open_n) in
  c.Model.due <- Array.make open_n 0;
  for _ = 1 to rounds do
    (* saturated: batches run to quiescence *)
    H.restore !measured;
    let evals0 = broker_evals r.domain in
    let gc0 = Gc.quick_stat () in
    let d0 = c.Model.delivered in
    let a0 = H.alloc_bytes () in
    let w0 = H.now_ns () in
    H.Slices.start sl ~events:d0 ~ops:r.seq;
    batches r ~target:(r.seq + sat_n) ~cap_ns:(w0 + 1_650_000_000)
      ~on_batch:(fun now -> H.Slices.tick sl ~now ~events:c.Model.delivered ~ops:r.seq);
    H.Slices.stop sl ~events:c.Model.delivered ~ops:r.seq;
    sat_ns := !sat_ns + (H.now_ns () - w0);
    alloc := !alloc +. (H.alloc_bytes () -. a0);
    events := !events + (c.Model.delivered - d0);
    let gc1 = Gc.quick_stat () in
    minor := !minor + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    major := !major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    evals := !evals + (broker_evals r.domain - evals0);
    measured := H.save layers;
    (* open loop: one publish per due time, run to quiescence *)
    c.Model.due_base <- r.seq;
    c.Model.latency_on <- true;
    let start = H.now_ns () + 1_000_000 in
    for k = 0 to open_n - 1 do
      let due = start + (k * period_ns) in
      let now = H.now_ns () in
      if due - now > 400_000 then
        ignore (Unix.select [] [] [] (float_of_int (due - now - 250_000) /. 1e9));
      while H.now_ns () < due do () done;
      c.Model.due.(k) <- due;
      H.Samples.add lags (H.now_ns () - due);
      publish r;
      run_engine r
    done;
    c.Model.latency_on <- false
  done;
  H.restore !measured;
  let events = !events and sat_ns = !sat_ns in
  let ev = float_of_int (max 1 events) in
  let us ns = float_of_int ns /. 1e3 /. ev in
  let traced =
    [ ("core.publish_us_per_event", us l_publish.H.ns);
      ("core.deliver_us_per_event", us l_engine.H.ns);
      ("harness.us_per_event", us sat_ns -. us l_publish.H.ns -. us l_engine.H.ns) ]
  in
  let rss = H.rss_peak_mb () in
  let latency_samples = Metric.count (Pubsub.Domain.latency r.domain) in
  List.iter Model.finish (c :: !spent);
  let p50, p99 = H.windowed_latency c.Model.latencies ~windows:rounds ~min:400 in
  let evps = H.Slices.events_per_s sl in
  let e2e =
    [ H.m "events_per_s" "events/s" evps;
      H.m "cpu_us_per_event" "us" (H.Slices.cpu_us_per_event sl);
      H.m "latency_p50_us" "us" (p50 /. 1e3);
      H.m "latency_p99_us" "us" (p99 /. 1e3);
      H.m "alloc_b_per_event" "B" (!alloc /. ev);
      H.m "rss_peak_mb" "MB" rss;
      H.m "setup_s" "s" (H.median (Array.of_list !setups));
      H.m "append_per_s" "records/s" (H.Slices.ops_per_s sl);
      H.m "recover_mb_per_s" "MB/s" (evps *. float_of_int shape.Model.payload_len /. 1e6) ]
  in
  let serial =
    if !H.tracing then
      Micro.serial (Array.map Obvent.to_value (Micro.obvents r.reg shape ~seed))
    else Micro.zero_serial
  in
  let layers =
    traced
    @ [ ("core.latency_samples", float_of_int latency_samples);
        ("filter.broker_evals_per_event", float_of_int !evals /. ev);
        ("gc.minor_per_kevent", float_of_int !minor *. 1000. /. ev);
        ("gc.major_per_kevent", float_of_int !major *. 1000. /. ev);
        ("harness.lag_p99_us", H.quantile (H.Samples.to_floats lags) 0.99 /. 1e3) ]
    @ serial
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 (c :: !spent) in
  { H.attempted = sum (fun c -> c.Model.expected);
    failed = sum (fun c -> c.Model.failed); e2e; layers }
