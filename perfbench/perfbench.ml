(* perfbench — the end-to-end benchmark of the pub/sub system.

     perfbench --workload tcp-small|tcp-bulk|inproc|store --seed N
               --seconds S --trace 0|1 [--fault drop|dup|corrupt|skip]
               [--data-dir DIR]

   One workload per process. The last line of standard output is the
   result: {"correct", "attempted", "failed", "metrics"} with every
   end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
   A line before it gives a reference time from a fixed integer loop
   and, in both modes, the end-to-end figures, so traced minus untraced
   shows the tracing overhead. Exit status 0 only when every output
   check passed; --fault tampers with one observation in the harness
   and must therefore exit 1. *)

module H = Harness

(* Every per-layer metric, in BENCHMARK.json order. A workload that
   does not cross a layer reports 0 for it. *)
let per_layer =
  [ ("client.pub_us_per_event", "us"); ("client.pub_alloc_b_per_event", "B");
    ("broker.poll_us_per_event", "us"); ("broker.alloc_b_per_event", "B");
    ("broker.forwarded_per_pub", "ratio"); ("broker.subs_covered", "count");
    ("client.recv_us_per_event", "us"); ("client.recv_alloc_b_per_event", "B");
    ("transport.write_syscalls_per_event", "1/event");
    ("transport.read_syscalls_per_event", "1/event");
    ("transport.frames_per_write", "frames/write");
    ("transport.payload_copies_per_event", "1/event");
    ("tpbsd.qdepth_peak", "count"); ("core.publish_us_per_event", "us");
    ("core.deliver_us_per_event", "us"); ("core.latency_samples", "count");
    ("filter.broker_evals_per_event", "1/event");
    ("serial.crc32_mb_per_s", "MB/s"); ("serial.encode_us_per_obvent", "us");
    ("serial.decode_us_per_obvent", "us"); ("store.put_us_per_record", "us");
    ("store.open_ms", "ms"); ("store.recover_alloc_b_per_record", "B");
    ("store.segments", "count"); ("gc.minor_per_kevent", "1/kevent");
    ("gc.major_per_kevent", "1/kevent"); ("harness.us_per_event", "us");
    ("harness.lag_p99_us", "us") ]

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: perfbench --workload tcp-small|tcp-bulk|inproc|store --seed N \
     --seconds S --trace 0|1 [--fault drop|dup|corrupt|skip] [--data-dir DIR]";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref false and fault = ref Model.No_fault in
  let data_dir = ref "_perfbench_data" in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> usage ("bad " ^ name)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> seconds := Some s; parse rest
        | _ -> usage "bad --seconds")
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v <> 0; parse rest
    | "--data-dir" :: v :: rest -> data_dir := v; parse rest
    | "--fault" :: v :: rest ->
        (fault :=
           match v with
           | "drop" -> Model.Drop
           | "dup" -> Model.Dup
           | "corrupt" -> Model.Corrupt
           | "skip" -> Model.Skip
           | _ -> usage "bad --fault");
        parse rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage "--seed is required" in
  let seconds = match !seconds with Some s -> s | None -> usage "--seconds is required" in
  let fault = !fault in
  let delivery_fault =
    match fault with Model.Skip -> false | _ -> true
  in
  H.tracing := !trace;
  let reference = H.reference_loop_ms () in
  let o =
    match !workload with
    | ("tcp-small" | "tcp-bulk") as w when delivery_fault ->
        Tcp.run ~p:(if w = "tcp-small" then Tcp.small else Tcp.bulk) ~seed ~seconds ~fault
    | "inproc" when delivery_fault -> Inproc.run ~seed ~seconds ~fault
    | "store" when fault = Model.No_fault || fault = Model.Skip ->
        Store.run ~seed ~seconds ~fault ~data_dir:!data_dir
    | "tcp-small" | "tcp-bulk" | "inproc" | "store" ->
        usage "this --fault does not apply to this workload"
    | w -> usage ("unknown workload " ^ w)
  in
  let correct = o.H.failed = 0 in
  Printf.printf "# %s seed=%d seconds=%g trace=%d reference_loop_ms=%.3f\n"
    !workload seed seconds (if !trace then 1 else 0) reference;
  Printf.printf "# end-to-end%s:%s\n"
    (if !trace then " (traced)" else "")
    (String.concat ""
       (List.map (fun mt -> Printf.sprintf " %s=%.6g%s" mt.H.name mt.H.value mt.H.unit_) o.H.e2e));
  let metrics =
    if !trace then
      List.map
        (fun (name, unit_) ->
          H.m name unit_ (Option.value ~default:0. (List.assoc_opt name o.H.layers)))
        per_layer
    else
      List.map
        (fun name -> List.find (fun mt -> mt.H.name = name) o.H.e2e)
        H.end_to_end_names
  in
  print_endline
    (H.result_line ~correct ~attempted:o.H.attempted ~failed:o.H.failed metrics);
  exit (if correct then 0 else 1)
