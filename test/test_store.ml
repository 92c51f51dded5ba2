module Log = Tpbs_store.Log
module Record = Tpbs_store.Record
module Stable = Tpbs_sim.Stable

(* --- scratch directories -------------------------------------------- *)

let fresh_dir () =
  let f = Filename.temp_file "tpbs_store" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contents t =
  List.map (fun k -> (k, Option.get (Log.get t k))) (Log.keys_with_prefix t "")

(* --- units ----------------------------------------------------------- *)

let test_roundtrip_reopen () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~dir () in
  Log.put t "a" "1";
  Log.put t "b" "2";
  Log.put t "a" "3";
  Log.delete t "b";
  Alcotest.(check (option string)) "overwrite" (Some "3") (Log.get t "a");
  Alcotest.(check (option string)) "deleted" None (Log.get t "b");
  Log.close t;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "state survives reopen" [ ("a", "3") ] (contents t);
  Alcotest.(check int) "replayed all records" 4 (Log.stats t).recovered_records;
  Log.close t

let seg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".log")
  |> List.sort compare

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* Golden on-disk bytes: [len u32 LE | crc32 u32 LE | payload]. These
   pin the record format; logs written by earlier builds must keep
   recovering. *)
let test_record_golden () =
  Alcotest.(check string) "put a=alpha"
    "0e0000000e83091a060303000501610505616c706861"
    (to_hex (Record.frame ~op:Record.Put ~key:"a" ~value:"alpha"));
  Alcotest.(check string) "delete a" "09000000166c8223060303020501610500"
    (to_hex (Record.frame ~op:Record.Delete ~key:"a" ~value:""))

let golden_segment =
  "0a000000e2f8aff9060303000501610501310a000000b6061372060303000501620501320a000000ce99a11706030300050161050133090000004fd2c421060303020501620500180000005951421806030300050d636572743a71313a6c6f673a370503ffffff"

let test_golden_segment_recovers () =
  with_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir "seg-00000000.log") in
  output_string oc (of_hex golden_segment);
  close_out oc;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "key/value state"
    [ ("a", "3"); ("cert:q1:log:7", "\xff\xff\xff") ]
    (List.sort compare (contents t));
  let st = Log.stats t in
  Alcotest.(check int) "every record replayed" 5 st.recovered_records;
  Alcotest.(check int) "nothing torn" 0 st.torn_bytes;
  Alcotest.(check int) "nothing corrupt" 0 st.corrupt_records;
  Log.close t

let test_header_bitrot_is_corrupt () =
  (* A length field with its top bit set is bit rot in a header, not a
     partial write: recovery must count a CRC reject, and still
     truncate the tail there. *)
  with_dir @@ fun dir ->
  let module Trace = Tpbs_trace.Trace in
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let t = Log.open_ ~dir () in
  Log.put t "a" "alpha";
  Log.put t "b" "beta";
  Log.close t;
  let path = Filename.concat dir (List.hd (seg_files dir)) in
  let ic = open_in_bin path in
  let buf = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let first = String.length (Record.frame ~op:Record.Put ~key:"a" ~value:"alpha") in
  Bytes.set buf (first + 3) (Char.chr (Char.code (Bytes.get buf (first + 3)) lor 0x80));
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "prefix survives" [ ("a", "alpha") ] (contents t);
  let value name = Trace.Counter.value (Trace.counter tr name) in
  Alcotest.(check int) "counted as a CRC reject" 1 (value "store.crc_rejects");
  Alcotest.(check int) "corrupt_records" 1 (Log.stats t).corrupt_records;
  Alcotest.(check int) "tail truncated from the bad header"
    (Bytes.length buf - first) (value "store.torn_bytes");
  Log.close t

let test_crc_rejection () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~dir () in
  Log.put t "a" "alpha";
  Log.put t "b" "beta";
  Log.put t "c" "gamma";
  Log.close t;
  (* flip one payload byte inside the middle record *)
  let path = Filename.concat dir (List.hd (seg_files dir)) in
  let ic = open_in_bin path in
  let buf = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let rec_len = String.length (Record.frame ~op:Record.Put ~key:"a" ~value:"alpha") in
  let off = rec_len + Record.header_bytes + 2 in
  Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "prefix before the corrupt record survives" [ ("a", "alpha") ] (contents t);
  let st = Log.stats t in
  Alcotest.(check bool) "corruption counted" true (st.corrupt_records > 0);
  Alcotest.(check bool) "tail truncated" true (st.torn_bytes > 0);
  (* the log stays writable at the truncation point *)
  Log.put t "d" "delta";
  Log.close t;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "clean after repair" [ ("a", "alpha"); ("d", "delta") ] (contents t);
  Alcotest.(check int) "no further corruption" 0 (Log.stats t).corrupt_records;
  Log.close t

let test_torn_tail_truncation () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~dir () in
  Log.put t "a" "1";
  Log.put t "b" "2";
  Log.close t;
  (* chop the final record mid-payload: a partial last write *)
  let path = Filename.concat dir (List.hd (seg_files dir)) in
  let ic = open_in_bin path in
  let buf = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_substring oc buf 0 (String.length buf - 3);
  close_out oc;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "torn tail dropped, prefix kept" [ ("a", "1") ] (contents t);
  Alcotest.(check int) "torn, not corrupt" 0 (Log.stats t).corrupt_records;
  Log.close t

let test_rotation () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~segment_bytes:64 ~auto_compact:false ~dir () in
  for i = 0 to 19 do
    Log.put t (Printf.sprintf "k%02d" i) (String.make 10 'x')
  done;
  let st = Log.stats t in
  Alcotest.(check bool) "rotated" true (st.rotations > 0);
  Alcotest.(check bool) "several segment files" true (st.segments > 1);
  Log.close t;
  let t = Log.open_ ~segment_bytes:64 ~auto_compact:false ~dir () in
  Alcotest.(check int) "all keys survive rotation + reopen" 20 (Log.key_count t);
  Log.close t

let test_compaction () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~segment_bytes:128 ~auto_compact:false ~dir () in
  for round = 0 to 9 do
    for i = 0 to 4 do
      Log.put t (Printf.sprintf "k%d" i) (Printf.sprintf "v%d.%d" round i)
    done
  done;
  Log.delete t "k4";
  let before = (Log.stats t).disk_bytes in
  Log.compact t;
  let st = Log.stats t in
  Alcotest.(check bool) "disk shrank" true (st.disk_bytes < before);
  Alcotest.(check int) "compactions counted" 1 st.compactions;
  Alcotest.(check bool) "base snapshot written" true
    (List.exists (fun n -> String.length n >= 5 && String.sub n 0 5 = "base-")
       (seg_files dir));
  let expect =
    [ ("k0", "v9.0"); ("k1", "v9.1"); ("k2", "v9.2"); ("k3", "v9.3") ]
  in
  Alcotest.(check (list (pair string string))) "merged state" expect (contents t);
  Log.close t;
  let t = Log.open_ ~segment_bytes:128 ~auto_compact:false ~dir () in
  Alcotest.(check (list (pair string string)))
    "merged state survives reopen" expect (contents t);
  Alcotest.(check (option string)) "delete survives merge" None (Log.get t "k4");
  Log.close t

let test_fast_drop_bounds_disk () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~segment_bytes:256 ~compact_min_dead:16 ~dir () in
  (* a hot key overwritten forever: each sealed segment goes fully dead
     and is unlinked on the spot, no merge needed *)
  for i = 0 to 999 do
    Log.put t "hot" (Printf.sprintf "%06d" i)
  done;
  let st = Log.stats t in
  Alcotest.(check bool) "segments dropped" true (st.segments_dropped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "disk bounded (%d bytes)" st.disk_bytes)
    true
    (st.disk_bytes < 2048);
  Alcotest.(check (option string)) "latest wins" (Some "000999") (Log.get t "hot");
  Log.close t

let test_auto_compact_bounds_disk () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~segment_bytes:256 ~compact_min_dead:16 ~dir () in
  (* cold keys pin every segment (no fast drop), hot overwrites pile up
     dead records: only merge compaction can reclaim the space *)
  for i = 0 to 99 do
    Log.put t (Printf.sprintf "cold%03d" i) "c";
    for _ = 1 to 3 do
      Log.put t "hot" (Printf.sprintf "%06d" i)
    done
  done;
  let st = Log.stats t in
  Alcotest.(check bool) "compacted at least once" true (st.compactions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "disk bounded (%d bytes)" st.disk_bytes)
    true
    (st.disk_bytes < 8192);
  Alcotest.(check int) "all cold keys live" 101 (Log.key_count t);
  Alcotest.(check (option string)) "latest wins" (Some "000099") (Log.get t "hot");
  Log.close t

let test_fault_injection_basic () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~dir () in
  Log.put t "a" "1";
  Log.set_fault t ~after_bytes:4;
  (* the next record is cut short after 4 bytes: a torn tail on disk *)
  Alcotest.check_raises "power cut" Log.Injected_crash (fun () ->
      Log.put t "b" "2");
  Alcotest.(check bool) "store is dead" true (Log.is_dead t);
  Alcotest.check_raises "writes stay dead" Log.Injected_crash (fun () ->
      Log.put t "c" "3");
  Log.close t;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "recovery keeps the committed prefix only" [ ("a", "1") ] (contents t);
  Alcotest.(check bool) "torn tail measured" true ((Log.stats t).torn_bytes > 0);
  Log.close t

let test_stable_adapter () =
  with_dir @@ fun dir ->
  let t = Log.open_ ~dir () in
  let s = Log.stable t in
  Stable.put s "cert:x:log:3" "m3";
  Stable.put s "cert:x:log:1" "m1";
  Stable.put s "cert:x:next" "4";
  Alcotest.(check (list string))
    "prefix scan, sorted"
    [ "cert:x:log:1"; "cert:x:log:3" ]
    (Stable.keys_with_prefix s "cert:x:log:");
  Stable.delete s "cert:x:log:1";
  Alcotest.(check int) "size tracks deletes" 2 (Stable.size s);
  Log.close t;
  let t = Log.open_ ~dir () in
  Alcotest.(check (option string))
    "survives reopen" (Some "m3")
    (Stable.get (Log.stable t) "cert:x:log:3");
  Log.close t

(* --- crash-point recovery property ----------------------------------- *)

(* Replay a random op sequence against both the on-disk log and an
   in-memory oracle, with a power cut injected at an arbitrary byte
   offset of the append stream. The oracle applies an op only when the
   log accepted it without crashing, so after reopening, the recovered
   state must equal the oracle exactly: the op whose record was torn
   is dropped, everything before it is kept. *)
let crash_point_prop (ops, cut, seg_bytes) =
  with_dir @@ fun dir ->
  let t = Log.open_ ~segment_bytes:seg_bytes ~compact_min_dead:8 ~dir () in
  Log.set_fault t ~after_bytes:cut;
  let oracle = Hashtbl.create 16 in
  (try
     List.iter
       (fun (op, k, v) ->
         (match op with
         | `Put -> Log.put t k v
         | `Delete -> Log.delete t k);
         (* reached only if the write was fully durable *)
         match op with
         | `Put -> Hashtbl.replace oracle k v
         | `Delete -> Hashtbl.remove oracle k)
       ops
   with Log.Injected_crash -> ());
  Log.close t;
  let t = Log.open_ ~segment_bytes:seg_bytes ~dir () in
  let recovered = contents t in
  Log.close t;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort compare
  in
  if recovered <> expected then
    QCheck.Test.fail_reportf
      "recovered state diverges from oracle at cut=%d:@ got %a@ want %a" cut
      Fmt.(Dump.list (Dump.pair string string))
      recovered
      Fmt.(Dump.list (Dump.pair string string))
      expected
  else true

let arb_crash_scenario =
  let open QCheck in
  let op =
    Gen.(
      map3
        (fun d k v ->
          ( (if d then `Delete else `Put),
            Printf.sprintf "k%d" k,
            Printf.sprintf "v%d" v ))
        (Gen.map (fun n -> n = 0) (int_bound 4))
        (int_bound 12) (int_bound 999))
  in
  make
    ~print:(fun (ops, cut, sb) ->
      Printf.sprintf "ops=%d cut=%d seg_bytes=%d" (List.length ops) cut sb)
    Gen.(
      triple
        (list_size (int_range 1 60) op)
        (int_bound 1200)
        (Gen.map (fun n -> 64 + n) (int_bound 512)))

let test_crash_point_recovery =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"crash-point recovery equals oracle"
       arb_crash_scenario crash_point_prop)

(* --- end-to-end: certified delivery across an injected power cut ----- *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Membership = Tpbs_group.Membership
module Certified = Tpbs_group.Certified

(* A publisher certifies [n_msgs] messages to a subscriber whose
   frontier store is the on-disk log, rigged to lose power after
   [budget] appended bytes. The cut lands at an arbitrary point of an
   arbitrary record — possibly mid-write of the durable frontier.
   After the crash the node reboots: the directory is re-opened (the
   recovery scan truncates any torn tail), a fresh certification
   endpoint re-attaches over the recovered store, and [resume]
   requests sync. The subscriber must end up having delivered every
   message exactly once, in order: the frontier is persisted before
   delivery, so a torn frontier write means "not delivered yet"
   (retransmission fills it in) and a committed one suppresses the
   echo. *)
let certified_crash_prop (n_msgs, budget, seed) =
  with_dir @@ fun dir ->
  let engine = Engine.create ~seed () in
  let net = Net.create engine in
  let n0 = Net.add_node net in
  let n1 = Net.add_node net in
  let group = Membership.create net [ n0; n1 ] in
  let pub =
    Certified.attach group ~me:n0 ~name:"t" ~storage:(Stable.create ())
      ~retry_period:2000
      ~deliver:(fun ~origin:_ _ -> ())
      ()
  in
  let delivered = ref [] in
  let deliver ~origin:_ payload = delivered := payload :: !delivered in
  let log = ref (Log.open_ ~segment_bytes:256 ~dir ()) in
  Log.set_fault !log ~after_bytes:budget;
  let sub =
    ref
      (Certified.attach group ~me:n1 ~name:"t" ~storage:(Log.stable !log)
         ~retry_period:2000 ~deliver ())
  in
  for i = 1 to n_msgs do
    Engine.schedule engine ~delay:(i * 1500) (fun () ->
        Certified.bcast pub (Printf.sprintf "m%d" i))
  done;
  let crashes = ref 0 in
  let rec drive () =
    match Engine.run ~until:2_000_000 engine with
    | () -> ()
    | exception Log.Injected_crash ->
        incr crashes;
        (* The node dies with its store: in-flight traffic to the old
           incarnation is dropped, node-local timers are invalidated. *)
        Net.crash net n1;
        Log.close !log;
        (* Reboot: recovery scan over the same directory, then a fresh
           endpoint over the surviving state. *)
        log := Log.open_ ~segment_bytes:256 ~dir ();
        Net.recover net n1;
        sub :=
          Certified.attach group ~me:n1 ~name:"t" ~storage:(Log.stable !log)
            ~retry_period:2000 ~deliver ();
        Certified.resume !sub;
        drive ()
  in
  drive ();
  Log.close !log;
  let got = List.rev !delivered in
  let want = List.init n_msgs (fun i -> Printf.sprintf "m%d" (i + 1)) in
  if !crashes > 1 then
    QCheck.Test.fail_reportf "single fault budget crashed %d times" !crashes
  else if got <> want then
    QCheck.Test.fail_reportf
      "crash at byte %d: delivered %a, want %a (crashes=%d)" budget
      Fmt.(Dump.list string)
      got
      Fmt.(Dump.list string)
      want !crashes
  else if Certified.low_watermark pub <> n_msgs then
    QCheck.Test.fail_reportf "publisher watermark %d, want %d (frontier lost)"
      (Certified.low_watermark pub)
      n_msgs
  else if Certified.log_size pub <> 0 then
    QCheck.Test.fail_reportf "publisher retains %d entries after full ack"
      (Certified.log_size pub)
  else true

let arb_certified_crash =
  let open QCheck in
  make
    ~print:(fun (n, b, s) ->
      Printf.sprintf "n_msgs=%d budget=%d seed=%d" n b s)
    Gen.(
      triple
        (int_range 3 25)
        (int_range 20 2500)
        (int_range 0 9999))

let test_certified_crash_recovery =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"certified delivery survives power cut at arbitrary byte"
       arb_certified_crash certified_crash_prop)

let test_fsync_policy () =
  (* Regression: appends used to only flush the channel — good enough
     for a process crash, not for a power cut. [store.fsyncs] counts
     the actual fsync calls, so the policy is observable: off by
     default on [open_], per-append override with [~sync], and the
     [stable] seam defaults it ON (certified commit points must be
     power-cut durable). *)
  with_dir @@ fun dir ->
  let module Trace = Tpbs_trace.Trace in
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let fsyncs () = Trace.Counter.value (Trace.counter tr "store.fsyncs") in
  let t = Log.open_ ~dir () in
  Log.put t "a" "1";
  Alcotest.(check int) "flush-only by default" 0 (fsyncs ());
  Log.put ~sync:true t "a" "2";
  Alcotest.(check int) "explicit sync pays one fsync" 1 (fsyncs ());
  let st = Log.stable t in
  Stable.put st "k" "v";
  Alcotest.(check int) "stable seam fsyncs by default" 2 (fsyncs ());
  Stable.delete st "k";
  Alcotest.(check int) "tombstones fsync too" 3 (fsyncs ());
  let lazy_st = Log.stable ~sync:false t in
  Stable.put lazy_st "k2" "v2";
  Alcotest.(check int) "opt-out honoured" 3 (fsyncs ());
  Log.close t;
  let t = Log.open_ ~fsync:true ~dir () in
  Log.put t "b" "3";
  Alcotest.(check int) "store-wide policy applies to plain put" 4 (fsyncs ());
  Log.close t

let test_group_commit_unit () =
  (* The group-commit seam in isolation: appends are flush-only, the
     deferred fsync is paid (and counted) once per non-empty flush,
     clean flushes are free, and the batch survives reopen. *)
  with_dir @@ fun dir ->
  let module Trace = Tpbs_trace.Trace in
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let commits () =
    Trace.Counter.value (Trace.counter tr "store.group_commits")
  in
  let fsyncs () = Trace.Counter.value (Trace.counter tr "store.fsyncs") in
  let t = Log.open_ ~dir () in
  let st = Log.group_stable t in
  Alcotest.(check bool) "group seam is grouped" true (Stable.grouped st);
  Alcotest.(check bool) "eager seam is not" false (Stable.grouped (Log.stable t));
  Alcotest.(check bool) "model disk is not" false
    (Stable.grouped (Stable.create ()));
  Stable.put st "k1" "v1";
  Stable.put st "k2" "v2";
  Stable.put st "k1" "v1'";
  Alcotest.(check int) "appends defer the fsync" 0 (fsyncs ());
  Alcotest.(check int) "no commit yet" 0 (commits ());
  Stable.flush st;
  Alcotest.(check int) "whole batch = one commit" 1 (commits ());
  Stable.flush st;
  Alcotest.(check int) "clean flush is free" 1 (commits ());
  Stable.delete st "k2";
  Stable.flush st;
  Alcotest.(check int) "tombstones dirty the group" 2 (commits ());
  Log.close t;
  let t = Log.open_ ~dir () in
  Alcotest.(check (list (pair string string)))
    "batched state survives reopen" [ ("k1", "v1'") ] (contents t);
  Log.close t

let test_group_commit_per_tick () =
  (* Wired through the engine: a grouped storage behind a certified
     channel makes every frontier/watermark persist of a tick coalesce
     into one commit at the tick barrier, instead of one fsync per
     record (the [stable] seam's default). *)
  with_dir @@ fun dir ->
  let module Trace = Tpbs_trace.Trace in
  let module Pubsub = Tpbs_core.Pubsub in
  let module Registry = Tpbs_types.Registry in
  let module Vtype = Tpbs_types.Vtype in
  let module Obvent = Tpbs_obvent.Obvent in
  let module Value = Tpbs_serial.Value in
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let commits () =
    Trace.Counter.value (Trace.counter tr "store.group_commits")
  in
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"CertMsg" ~implements:[ "Certified" ]
    ~attrs:[ "n", Vtype.Tint ]
    ();
  let engine = Engine.create ~seed:3 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let t = Log.open_ ~dir () in
  let st1 = Log.group_stable t in
  (* Certified state is keyed per channel, not per node: each process
     needs its own backend. The publisher keeps the model disk; the
     subscriber's frontier goes through the grouped log. *)
  let p0 =
    Pubsub.Process.create domain ~storage:(Stable.create ()) (Net.add_node net)
  in
  let p1 = Pubsub.Process.create domain ~storage:st1 (Net.add_node net) in
  let s = Pubsub.Process.subscribe p1 ~param:"CertMsg" (fun _ -> ()) in
  Pubsub.Subscription.activate s;
  let n = 5 in
  for i = 1 to n do
    Pubsub.Process.publish p0 (Obvent.make reg "CertMsg" [ "n", Value.Int i ])
  done;
  Engine.run engine;
  Alcotest.(check int) "all certified messages delivered" n
    (Pubsub.Subscription.delivered s);
  let appends = (Log.stats t).Log.appends in
  Alcotest.(check bool) "certified state reached the log" true (appends > 0);
  Alcotest.(check bool) "ticks commit" true (commits () >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "commits (%d) coalesce appends (%d)" (commits ()) appends)
    true
    (commits () <= appends);
  (* Nothing is left hanging: the tick barrier flushed every dirty
     batch, so a manual flush now finds both storages clean. *)
  let before = commits () in
  Stable.flush st1;
  Alcotest.(check int) "no dirty tail after the run" before (commits ());
  Log.close t

let suite =
  ( "store",
    [
      Alcotest.test_case "roundtrip + reopen" `Quick test_roundtrip_reopen;
      Alcotest.test_case "CRC rejection truncates at corruption" `Quick
        test_crc_rejection;
      Alcotest.test_case "torn tail truncation" `Quick test_torn_tail_truncation;
      Alcotest.test_case "record golden bytes" `Quick test_record_golden;
      Alcotest.test_case "golden segment recovers" `Quick
        test_golden_segment_recovers;
      Alcotest.test_case "header bit rot is corrupt, not torn" `Quick
        test_header_bitrot_is_corrupt;
      Alcotest.test_case "segment rotation" `Quick test_rotation;
      Alcotest.test_case "merge compaction" `Quick test_compaction;
      Alcotest.test_case "fast segment drop bounds disk" `Quick
        test_fast_drop_bounds_disk;
      Alcotest.test_case "auto-compaction bounds disk" `Quick
        test_auto_compact_bounds_disk;
      Alcotest.test_case "fault injection: torn write then recovery" `Quick
        test_fault_injection_basic;
      Alcotest.test_case "Stable adapter over the log" `Quick test_stable_adapter;
      Alcotest.test_case "fsync policy observable" `Quick test_fsync_policy;
      Alcotest.test_case "group commit: one fsync per flushed batch" `Quick
        test_group_commit_unit;
      Alcotest.test_case "group commit: coalesced at the engine tick" `Quick
        test_group_commit_per_tick;
      test_crash_point_recovery;
      test_certified_crash_recovery;
    ] )
