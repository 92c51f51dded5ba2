(* store: the segmented log (lib/store) used two ways. Appends: a
   round of Log.put/Log.delete of records shaped like certified-log
   entries (keys overwritten, ~5% deletes, ~1 KiB encoded values), one
   write per record. Recovery: the log is closed and reopened three
   times; each Log.open_ re-reads every segment, checks every CRC and
   rebuilds the index. The files stay in the page cache, so recovery
   measures the CPU path.

   Auto-compaction is off: a merge fsyncs its snapshot, which would put
   the disk, not the store's code, on the measured path. Every round
   replays the same operations into a fresh directory. *)

module Log = Tpbs_store.Log
module Codec = Tpbs_serial.Codec
module Value = Tpbs_serial.Value
module H = Harness

let records = 16_384
let keyspace = records / 4
let value_len = 1000
let reopens = 3

type op = Put of string * string | Delete of string

let ops ~seed =
  Array.init records (fun i ->
      let h = Harness.mix (seed + 104_729) i in
      let key = Printf.sprintf "cert:q%d:log:%d" (h land 3) ((h lsr 2) mod keyspace) in
      if (h lsr 30) mod 100 < 5 then Delete key
      else
        Put
          ( key,
            Codec.encode
              (Value.List
                 [ Value.Int i; Value.Int (h lsr 40);
                   Value.Str (Model.payload ~h value_len) ]) ))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let open_log dir = Log.open_ ~auto_compact:false ~dir ()

let l_put = H.layer ()

(* State check: the recovered log must hold exactly the model. *)
let verify log model =
  let failed = ref 0 in
  Hashtbl.iter
    (fun k v ->
      match Log.get log k with
      | Some v' when String.equal v v' -> ()
      | Some _ | None -> incr failed)
    model;
  failed := !failed + abs (Log.key_count log - Hashtbl.length model);
  (Hashtbl.length model + 1, !failed)

(* What the rounds of one run add up to. *)
type acc = {
  mutable attempted : int;
  mutable failed : int;
  put_lat : H.Samples.t;  (* ns per put/delete *)
  round_rate : float Queue.t;  (* records per second of append + reopens *)
  append_rate : float Queue.t;  (* records per second of appends *)
  recover_rate : float Queue.t;  (* MB of log per second of Log.open_ *)
  cpu_per : float Queue.t;  (* CPU seconds per record *)
  open_ms : float Queue.t;
  mutable appended : int;
  mutable alloc_append : float;
  mutable recovered : int;
  mutable alloc_open : float;
  mutable segments : int;
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable program_ns : int;  (* appends + opens *)
  mutable busy_ns : int;  (* whole rounds *)
}

let acc () =
  { attempted = 0; failed = 0; put_lat = H.Samples.create (records * 8);
    round_rate = Queue.create (); append_rate = Queue.create ();
    recover_rate = Queue.create (); cpu_per = Queue.create ();
    open_ms = Queue.create (); appended = 0; alloc_append = 0.; recovered = 0;
    alloc_open = 0.; segments = 0; gc_minor = 0; gc_major = 0; program_ns = 0;
    busy_ns = 0 }

(* One round in a fresh [dir]: append [ops] keeping the model, close,
   then reopen [reopens] times, checking the recovered state each time.
   [skip] is the index of an op whose model update is left out (fault
   mode), or -1. *)
let round a ops ~dir ~reopens ~skip =
  let n = Array.length ops in
  let log = open_log dir in
  let model = Hashtbl.create keyspace in
  let gc0 = Gc.quick_stat () in
  let cpu0 = H.cpu_s () in
  let a0 = H.alloc_bytes () in
  let w0 = H.now_ns () in
  Array.iteri
    (fun i op ->
      let t0 = H.now_ns () in
      H.enter ();
      (match op with Put (k, v) -> Log.put log k v | Delete k -> Log.delete log k);
      H.leave l_put;
      H.Samples.add a.put_lat (H.now_ns () - t0);
      if i <> skip then
        match op with
        | Put (k, v) -> Hashtbl.replace model k v
        | Delete k -> Hashtbl.remove model k)
    ops;
  let w1 = H.now_ns () in
  let a1 = H.alloc_bytes () in
  let cpu1 = H.cpu_s () in
  let gc1 = Gc.quick_stat () in
  a.alloc_append <- a.alloc_append +. (a1 -. a0);
  a.appended <- a.appended + n;
  a.attempted <- a.attempted + n;
  a.gc_minor <- a.gc_minor + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  a.gc_major <- a.gc_major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  let st = Log.stats log in
  a.segments <- st.Log.segments;
  Log.close log;
  Queue.push (float_of_int n /. H.secs_of_ns (w1 - w0)) a.append_rate;
  let open_ns = ref 0 and open_cpu = ref 0. in
  for _ = 1 to reopens do
    let cpu0 = H.cpu_s () in
    let a0 = H.alloc_bytes () in
    let t0 = H.now_ns () in
    let log = open_log dir in
    let dt = H.now_ns () - t0 in
    a.alloc_open <- a.alloc_open +. (H.alloc_bytes () -. a0);
    open_cpu := !open_cpu +. (H.cpu_s () -. cpu0);
    a.recovered <- a.recovered + (Log.stats log).Log.recovered_records;
    open_ns := !open_ns + dt;
    Queue.push (float_of_int st.Log.disk_bytes /. 1e6 /. H.secs_of_ns dt) a.recover_rate;
    Queue.push (float_of_int dt /. 1e6) a.open_ms;
    let checked, failed = verify log model in
    a.attempted <- a.attempted + checked;
    a.failed <- a.failed + failed;
    Log.close log
  done;
  Queue.push (float_of_int n /. H.secs_of_ns (w1 - w0 + !open_ns)) a.round_rate;
  Queue.push ((cpu1 -. cpu0 +. !open_cpu) /. float_of_int n) a.cpu_per;
  a.program_ns <- a.program_ns + (w1 - w0) + !open_ns;
  a.busy_ns <- a.busy_ns + (H.now_ns () - w0);
  rm_rf dir

let run ~seed ~seconds ~fault ~data_dir =
  let root = Filename.concat data_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  rm_rf root;
  Sys.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let ops = ops ~seed in
  (* the fault mode forgets the model update of the round's last put,
     which no later operation can mask *)
  let last_put = ref 0 in
  Array.iteri (fun i op -> match op with Put _ -> last_put := i | Delete _ -> ()) ops;
  let skip = if fault = Model.Skip then !last_put else -1 in
  (* set-up, three times per process and fifteen per run (see run.py;
     one takes ~35 ms): a warm-up round over the first eighth of the
     operations, one reopen, checked like the rest *)
  let warm = acc () in
  let setups = ref [] in
  for k = 1 to 3 do
    let t0 = H.now_ns () in
    round warm (Array.sub ops 0 (records / 8)) ~reopens:1 ~skip:(-1)
      ~dir:(Filename.concat root (Printf.sprintf "setup-%d" k));
    setups := H.secs_of_ns (H.now_ns () - t0) :: !setups
  done;
  let a = acc () in
  let t_end = H.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k = 0 || H.now_ns () < t_end do
    round a ops ~reopens ~skip:(if !k = 0 then skip else -1)
      ~dir:(Filename.concat root (Printf.sprintf "round-%d" !k));
    incr k
  done;
  let arr q = Array.of_seq (Queue.to_seq q) in
  let best q = H.best (arr q) ~higher:true in
  let p50, p99 = H.windowed_latency a.put_lat ~windows:20 ~min:1000 in
  let recs = float_of_int a.appended in
  let e2e =
    [ H.m "events_per_s" "events/s" (best a.round_rate);
      H.m "cpu_us_per_event" "us" (H.best (arr a.cpu_per) ~higher:false *. 1e6);
      H.m "latency_p50_us" "us" (p50 /. 1e3);
      H.m "latency_p99_us" "us" (p99 /. 1e3);
      H.m "alloc_b_per_event" "B" (a.alloc_append /. recs);
      H.m "rss_peak_mb" "MB" (H.rss_peak_mb ());
      H.m "setup_s" "s" (H.median (Array.of_list !setups));
      H.m "append_per_s" "records/s" (best a.append_rate);
      H.m "recover_mb_per_s" "MB/s" (best a.recover_rate) ]
  in
  let serial =
    if !H.tracing then
      Micro.serial
        (Array.init 256 (fun i ->
             match ops.(i) with
             | Put (_, v) -> Codec.decode v
             | Delete k -> Value.Str k))
    else Micro.zero_serial
  in
  let layers =
    [ ("store.put_us_per_record", float_of_int l_put.H.ns /. 1e3 /. recs);
      ("store.open_ms", H.median (arr a.open_ms));
      ("store.recover_alloc_b_per_record", a.alloc_open /. float_of_int (max 1 a.recovered));
      ("store.segments", float_of_int a.segments);
      ("gc.minor_per_kevent", float_of_int a.gc_minor *. 1000. /. recs);
      ("gc.major_per_kevent", float_of_int a.gc_major *. 1000. /. recs);
      ("harness.us_per_event", float_of_int (a.busy_ns - a.program_ns) /. 1e3 /. recs) ]
    @ serial
  in
  { H.attempted = a.attempted + warm.attempted; failed = a.failed + warm.failed; e2e; layers }
