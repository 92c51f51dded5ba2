(* tcp-small and tcp-bulk: an in-process tpbsd broker (default config)
   with one publisher session and one subscriber session over loopback,
   each an unmodified Pubsub.Domain joined through Client.attach.

   Every measured phase runs on this one thread: each loop turn polls
   the publisher, the broker and the subscriber in pipeline order with
   zero timeouts. Only the set-up uses a second domain, to answer the
   blocking Client.connect handshakes; it is joined before anything is
   timed. *)

module Broker = Tpbs_transport.Broker
module Client = Tpbs_transport.Client
module Pubsub = Tpbs_core.Pubsub
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Metric = Tpbs_sim.Metric
module Trace = Tpbs_trace.Trace
module Obvent = Tpbs_obvent.Obvent
module Value = Tpbs_serial.Value
module H = Harness

type params = {
  shape : Model.shape;
  subs : int;  (* subscriptions of the subscriber session *)
  nominal_rate : float;
      (* publishes per second at saturation on the reference machine:
         sizes the saturated segments, whose work is fixed per second of
         run length so that memory and counts do not depend on speed *)
  offered_rate : float;  (* open-loop publishes per second *)
  warmup : int;  (* checked publishes in each set-up *)
}

(* ~100 B quotes and requests, 64 subscriptions: per-message cost. *)
let small =
  { shape = { Model.mixed = true; payload_len = 24 }; subs = 64;
    nominal_rate = 40_000.; offered_rate = 6000.; warmup = 4000 }

(* 8 KiB quotes, one unfiltered subscription: per-byte cost. *)
let bulk =
  { shape = { Model.mixed = false; payload_len = 8192 }; subs = 1;
    nominal_rate = 3500.; offered_rate = 1200.; warmup = 400 }

(* Publishes kept in flight by the closed loop: the broker's default
   publish window. *)
let window = Broker.default_config.Broker.pub_window

let l_pub = H.layer ()
let l_broker = H.layer ()
let l_recv = H.layer ()

type rig = {
  c : Model.checker;
  reg : Tpbs_types.Registry.t;
  broker : Broker.t;
  pub : Client.t;
  pub_proc : Pubsub.Process.t;
  pub_engine : Engine.t;
  sub : Client.t;
  sub_domain : Pubsub.Domain.t;
  sub_engine : Engine.t;
  mutable seq : int;  (* next publish *)
}

let endpoint reg ~port ~id =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create domain (Net.add_node net) in
  match Client.connect ~host:"127.0.0.1" ~port ~id () with
  | None -> failwith ("perfbench: cannot reach the broker as " ^ id)
  | Some c ->
      Client.attach c domain proc;
      (c, domain, proc, engine)

(* One pipeline turn: publisher, broker, subscriber. *)
let turn r =
  H.enter ();
  Engine.run r.pub_engine;
  ignore (Client.poll r.pub ~timeout_ms:0);
  H.leave l_pub;
  H.enter ();
  ignore (Broker.poll r.broker ~timeout_ms:0 ());
  H.leave l_broker;
  H.enter ();
  ignore (Client.poll r.sub ~timeout_ms:0);
  Engine.run r.sub_engine;
  H.leave l_recv

let idle r = Model.all_delivered r.c && Client.queued_count r.pub = 0

(* Pump until nothing is owed, or give up after 10 s (what is still
   owed then is counted missing). *)
let drain r =
  let deadline = H.now_ns () + 10_000_000_000 in
  while (not (idle r)) && H.now_ns () < deadline do
    turn r
  done

let publish r =
  let ob = Model.input r.c r.reg ~seq:r.seq in
  H.enter ();
  Pubsub.Process.publish r.pub_proc ob;
  H.leave l_pub;
  r.seq <- r.seq + 1

(* The closed loop: keep [window] publishes in flight until [target]
   publishes were made or [cap_ns] passes. *)
let closed_loop r ~target ~cap_ns ~on_turn =
  let now = ref (H.now_ns ()) in
  while r.seq < target && !now < cap_ns do
    while Client.queued_count r.pub < window && r.seq < target do
      publish r
    done;
    turn r;
    now := H.now_ns ();
    on_turn !now
  done

(* Broker, two sessions, the subscriptions, one acknowledged probe
   publish — which cannot leave before the broker's 750 ms warmup has
   passed — and a warm-up of [warmup] checked publishes. *)
let setup p c =
  let reg = Model.registry () in
  let broker = Broker.create ~port:0 () in
  let port = Broker.port broker in
  let stop = Atomic.make false in
  let helper =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Broker.poll broker ~timeout_ms:5 ())
        done)
  in
  let (pub, _, pub_proc, pub_engine), (sub, sub_domain, sub_proc, sub_engine) =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join helper)
      (fun () ->
        let s = endpoint reg ~port ~id:"sub" in
        let p = endpoint reg ~port ~id:"pub" in
        (p, s))
  in
  Array.iteri
    (fun i spec ->
      Pubsub.Subscription.activate
        (Pubsub.Process.subscribe sub_proc ~param:spec.Model.param
           ~filter:(Model.fspec spec) (Model.handler c i)))
    c.Model.specs;
  Engine.run sub_engine;
  let r =
    { c; reg; broker; pub; pub_proc; pub_engine; sub; sub_domain;
      sub_engine; seq = 1 }
  in
  Pubsub.Process.publish pub_proc (Obvent.make reg "Probe" [ ("seq", Value.Int 0) ]);
  let deadline = H.now_ns () + 10_000_000_000 in
  while Client.queued_count pub > 0 && H.now_ns () < deadline do
    turn r
  done;
  if Client.queued_count pub > 0 then failwith "perfbench: probe publish never acknowledged";
  closed_loop r ~target:(1 + p.warmup) ~cap_ns:max_int ~on_turn:ignore;
  drain r;
  r

let teardown r =
  Client.close r.pub;
  Client.close r.sub;
  Broker.stop r.broker

let counter name = Trace.Counter.value (Trace.counter (Trace.ambient ()) name)

let run ~(p : params) ~seed ~seconds ~fault =
  let specs =
    if p.subs = 1 then [ { Model.param = "StockObvent"; atoms = [] } ]
    else Model.population p.subs
  in
  (* One set-up per process: run.py reports the median over the
     processes of a run. *)
  let c = Model.checker ~seed ~fault p.shape specs in
  let covered0 = counter "broker.subs_covered" in
  let t0 = H.now_ns () in
  let r = setup p c in
  let setup_s = H.secs_of_ns (H.now_ns () - t0) in
  (* One round per second of run length: a saturated segment of fixed
     work, then an open-loop segment, so that both kinds of metric
     sample the whole run. *)
  let rounds = max 1 (int_of_float (Float.round seconds)) in
  let sat_n = int_of_float (0.55 *. p.nominal_rate) in
  let open_n = int_of_float (0.35 *. p.offered_rate) in
  let period_ns = int_of_float (1e9 /. p.offered_rate) in
  let layers = [ l_pub; l_broker; l_recv ] in
  List.iter H.reset_layer layers;
  let measured = ref (H.save layers) in
  let names =
    [ "transport.write_syscalls"; "transport.read_syscalls"; "transport.frames_sent";
      "transport.payload_copies"; "tpbsd.forwarded"; "tpbsd.pubs" ]
  in
  let counted = ref (List.map (fun _ -> 0) names) in
  let minor = ref 0 and major = ref 0 in
  let sl = H.Slices.create ~slice_ms:100 in
  let events = ref 0 and alloc = ref 0. and sat_ns = ref 0 in
  let lags = H.Samples.create (rounds * open_n) in
  c.Model.due <- Array.make open_n 0;
  for _ = 1 to rounds do
    (* saturated closed loop *)
    H.restore !measured;
    let before = List.map counter names in
    let gc0 = Gc.quick_stat () in
    let d0 = c.Model.delivered in
    let a0 = H.alloc_bytes () in
    let w0 = H.now_ns () in
    H.Slices.start sl ~events:d0 ~ops:r.seq;
    closed_loop r ~target:(r.seq + sat_n) ~cap_ns:(w0 + 1_650_000_000)
      ~on_turn:(fun now -> H.Slices.tick sl ~now ~events:c.Model.delivered ~ops:r.seq);
    H.Slices.stop sl ~events:c.Model.delivered ~ops:r.seq;
    sat_ns := !sat_ns + (H.now_ns () - w0);
    alloc := !alloc +. (H.alloc_bytes () -. a0);
    events := !events + (c.Model.delivered - d0);
    let gc1 = Gc.quick_stat () in
    minor := !minor + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    major := !major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    counted := List.map2 ( + ) !counted (List.map2 ( - ) (List.map counter names) before);
    measured := H.save layers;
    drain r;
    (* open loop at a fixed offered rate, each publish timed from when
       it was due; the loop blocks in select while nothing is owed *)
    c.Model.due_base <- r.seq;
    c.Model.latency_on <- true;
    let start = H.now_ns () + 1_000_000 in
    for k = 0 to open_n - 1 do
      let due = start + (k * period_ns) in
      let waiting = ref true in
      while !waiting do
        let now = H.now_ns () in
        if now >= due then waiting := false
        else if not (idle r) then turn r
        else if due - now > 400_000 then
          ignore (Unix.select [] [] [] (float_of_int (due - now - 250_000) /. 1e9))
      done;
      c.Model.due.(k) <- due;
      H.Samples.add lags (H.now_ns () - due);
      publish r;
      turn r
    done;
    drain r;
    c.Model.latency_on <- false
  done;
  H.restore !measured;
  let events = !events and sat_ns = !sat_ns in
  let dl n = float_of_int (List.assoc n (List.combine names !counted)) in
  let ev = float_of_int (max 1 events) in
  let us l = float_of_int l.H.ns /. 1e3 /. ev and bp l = l.H.bytes /. ev in
  let traced =
    [ ("client.pub_us_per_event", us l_pub);
      ("client.pub_alloc_b_per_event", bp l_pub);
      ("broker.poll_us_per_event", us l_broker);
      ("broker.alloc_b_per_event", bp l_broker);
      ("client.recv_us_per_event", us l_recv);
      ("client.recv_alloc_b_per_event", bp l_recv);
      ("harness.us_per_event",
        (float_of_int sat_ns /. 1e3 /. ev) -. us l_pub -. us l_broker -. us l_recv) ]
  in
  let rss = H.rss_peak_mb () in
  let latency_samples = Metric.count (Pubsub.Domain.latency r.sub_domain) in
  let qdepth_peak = Trace.Gauge.peak (Trace.gauge (Trace.ambient ()) "tpbsd.qdepth") in
  let covered = counter "broker.subs_covered" - covered0 in
  teardown r;
  Model.finish c;
  let p50, p99 = H.windowed_latency c.Model.latencies ~windows:rounds ~min:400 in
  let evps = H.Slices.events_per_s sl in
  let e2e =
    [ H.m "events_per_s" "events/s" evps;
      H.m "cpu_us_per_event" "us" (H.Slices.cpu_us_per_event sl);
      H.m "latency_p50_us" "us" (p50 /. 1e3);
      H.m "latency_p99_us" "us" (p99 /. 1e3);
      H.m "alloc_b_per_event" "B" (!alloc /. ev);
      H.m "rss_peak_mb" "MB" rss;
      H.m "setup_s" "s" setup_s;
      H.m "append_per_s" "records/s" (H.Slices.ops_per_s sl);
      H.m "recover_mb_per_s" "MB/s" (evps *. float_of_int p.shape.Model.payload_len /. 1e6) ]
  in
  let core_pub, core_deliver, serial = Micro.engine_and_serial r.reg p.shape ~seed specs in
  let layers =
    traced
    @ [ ("broker.forwarded_per_pub", dl "tpbsd.forwarded" /. Float.max 1. (dl "tpbsd.pubs"));
        ("broker.subs_covered", float_of_int covered);
        ("transport.write_syscalls_per_event", dl "transport.write_syscalls" /. ev);
        ("transport.read_syscalls_per_event", dl "transport.read_syscalls" /. ev);
        ("transport.frames_per_write",
          dl "transport.frames_sent" /. Float.max 1. (dl "transport.write_syscalls"));
        ("transport.payload_copies_per_event", dl "transport.payload_copies" /. ev);
        ("tpbsd.qdepth_peak", float_of_int qdepth_peak);
        ("core.publish_us_per_event", core_pub);
        ("core.deliver_us_per_event", core_deliver);
        ("core.latency_samples", float_of_int latency_samples);
        ("gc.minor_per_kevent", float_of_int !minor *. 1000. /. ev);
        ("gc.major_per_kevent", float_of_int !major *. 1000. /. ev);
        ("harness.lag_p99_us", H.quantile (H.Samples.to_floats lags) 0.99 /. 1e3) ]
    @ serial
  in
  { H.attempted = c.Model.expected; failed = c.Model.failed; e2e; layers }
