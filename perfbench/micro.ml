(* Traced-mode timings of single layers on a workload's own data, for
   the layers a live run cannot bracket from outside: Codec/Wire on the
   workload's obvents (or log values), and — for the TCP workloads,
   whose engine calls run inside Client — the engine's publish and
   delivery paths through a domain whose remote endpoint is the
   harness. *)

module Pubsub = Tpbs_core.Pubsub
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Codec = Tpbs_serial.Codec
module Wire = Tpbs_serial.Wire
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module H = Harness

(* Repeat [f] (one pass over [n] items) for at least 50 ms; ns per item. *)
let per_item n f =
  let t0 = H.now_ns () in
  let passes = ref 0 in
  while H.now_ns () - t0 < 50_000_000 do
    f ();
    incr passes
  done;
  float_of_int (H.now_ns () - t0) /. float_of_int (!passes * n)

let serial values =
  let n = Array.length values in
  let encoded = Array.map Codec.encode values in
  let bytes = Array.fold_left (fun a s -> a + String.length s) 0 encoded in
  let enc = per_item n (fun () -> Array.iter (fun v -> ignore (Codec.encode v)) values) in
  let dec = per_item n (fun () -> Array.iter (fun s -> ignore (Codec.decode s)) encoded) in
  let crc = per_item n (fun () -> Array.iter (fun s -> ignore (Wire.crc32 s)) encoded) in
  [ ("serial.crc32_mb_per_s", float_of_int bytes /. float_of_int n /. crc *. 1e3);
    ("serial.encode_us_per_obvent", enc /. 1e3);
    ("serial.decode_us_per_obvent", dec /. 1e3) ]

let sample = 256

let obvents reg shape ~seed =
  Array.init sample (fun i -> Model.obvent reg shape ~seed (1_000_000 + i))

(* (core.publish, core.deliver) in us per delivered event, through the
   same subscriptions as the live run. *)
let engine reg obs specs =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create domain (Net.add_node net) in
  let captured = Array.make sample ("", "") in
  let n = ref 0 in
  let inject =
    Pubsub.Remote.connect domain proc
      {
        Pubsub.Remote.r_publish =
          (fun ~cls env ->
            captured.(!n mod sample) <- (cls, env);
            incr n);
        r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
        r_unsubscribe = (fun ~sid:_ -> ());
      }
  in
  let handled = ref 0 in
  List.iter
    (fun spec ->
      Pubsub.Subscription.activate
        (Pubsub.Process.subscribe proc ~param:spec.Model.param
           ~filter:(Model.fspec spec) (fun _ -> incr handled)))
    specs;
  Engine.run engine;
  let pub =
    per_item sample (fun () ->
        Array.iter (fun o -> Pubsub.Process.publish proc o) obs;
        Engine.run engine)
  in
  let deliver_pass () =
    Array.iter (fun (cls, env) -> inject ~cls env) captured;
    Engine.run engine
  in
  handled := 0;
  deliver_pass ();
  let per_publish = float_of_int (max 1 !handled) /. float_of_int sample in
  let deliver = per_item sample deliver_pass in
  (pub /. per_publish /. 1e3, deliver /. per_publish /. 1e3)

let zero_serial =
  [ ("serial.crc32_mb_per_s", 0.); ("serial.encode_us_per_obvent", 0.);
    ("serial.decode_us_per_obvent", 0.) ]

(* TCP workloads: engine paths and serialisation on the run's obvents. *)
let engine_and_serial reg shape ~seed specs =
  if not !H.tracing then (0., 0., zero_serial)
  else begin
    let obs = obvents reg shape ~seed in
    let pub, deliver = engine reg obs specs in
    (pub, deliver, serial (Array.map Obvent.to_value obs))
  end
