module Trace = Tpbs_trace.Trace
module Wire = Tpbs_serial.Wire

(* One framed, non-blocking connection.

   The write side batches: [send] encodes the message straight into
   its frame at the end of an accumulator buffer (sealed in place, no
   intermediate strings), and [flush] pushes as much as the kernel
   will take in one [write]. A pump that sends a burst of small
   envelopes and then flushes once coalesces them all into a single
   syscall (and a single TCP segment, usually) — the batching factor
   shows up as [transport.frames_sent] / [transport.write_syscalls].

   Pending bytes live in a chunk queue ahead of the accumulator: a
   large {!Frame.preframed} fan-out frame is enqueued by reference —
   the same immutable string queued on every subscriber session,
   written to each socket with zero copies in userland.

   The read side is symmetric: [recv] does one [read] into a scratch
   buffer and feeds the incremental {!Frame.Decoder}; [pop_view] then
   yields zero or more complete messages, decoded in place over the
   decoder's buffer. Short and partial reads are the decoder's normal
   diet. *)

type verdict = [ `Ok | `Blocked | `Closed of string ]

(* A queued run of bytes: [data.[off .. stop-1]] remains to be
   written. Each large preframed frame is its own chunk, holding the
   (possibly shared) string by reference; accumulator bytes spilled
   ahead of it form another. *)
type chunk = { data : string; mutable off : int; stop : int }

(* Preframed frames at or below this size are coalesced (copied) into
   the accumulator; larger ones are enqueued by reference. The
   threshold trades one small memcpy for syscall batching: a burst of
   control frames still leaves in one [write], while a big envelope —
   where the copy would cost more than a syscall — goes out directly. *)
let coalesce_limit = 4096

type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  wbuf : Wire.Writer.t;  (* frames accumulating for the next write *)
  mutable wpos : int;  (* first byte of [wbuf] not yet written *)
  chunks : chunk Queue.t;  (* runs queued ahead of [wbuf], in send order *)
  mutable chunk_bytes : int;  (* unwritten bytes across [chunks] *)
  scratch : Bytes.t;
  mutable closed : bool;
  mutable frames_sent : int;
  mutable frames_recv : int;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable write_syscalls : int;
  mutable read_syscalls : int;
}

(* Shared ambient-registry counters: every connection in the process
   feeds the same transport.* totals, re-resolved when tests swap the
   ambient registry. *)
type ctrs = {
  c_frames_sent : Trace.Counter.t;
  c_frames_recv : Trace.Counter.t;
  c_bytes_sent : Trace.Counter.t;
  c_bytes_recv : Trace.Counter.t;
  c_write_sys : Trace.Counter.t;
  c_read_sys : Trace.Counter.t;
  c_corrupt : Trace.Counter.t;
  c_fanout_shared : Trace.Counter.t;
  c_payload_copies : Trace.Counter.t;
}

let cached = ref None

let counters () =
  let tr = Trace.ambient () in
  match !cached with
  | Some (tr', c) when tr' == tr -> c
  | _ ->
      let c =
        {
          c_frames_sent = Trace.counter tr "transport.frames_sent";
          c_frames_recv = Trace.counter tr "transport.frames_received";
          c_bytes_sent = Trace.counter tr "transport.bytes_sent";
          c_bytes_recv = Trace.counter tr "transport.bytes_received";
          c_write_sys = Trace.counter tr "transport.write_syscalls";
          c_read_sys = Trace.counter tr "transport.read_syscalls";
          c_corrupt = Trace.counter tr "transport.corrupt_frames";
          c_fanout_shared = Trace.counter tr "transport.fanout_shared";
          c_payload_copies = Trace.counter tr "transport.payload_copies";
        }
      in
      cached := Some (tr, c);
      c

let create ?max_frame fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  {
    fd;
    dec = Frame.Decoder.create ?max_frame ();
    wbuf = Wire.Writer.create ~capacity:4096 ();
    wpos = 0;
    chunks = Queue.create ();
    chunk_bytes = 0;
    scratch = Bytes.create 65536;
    closed = false;
    frames_sent = 0;
    frames_recv = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    write_syscalls = 0;
    read_syscalls = 0;
  }

let fd t = t.fd
let pending_bytes t = t.chunk_bytes + Wire.Writer.length t.wbuf - t.wpos

(* Move the accumulator's unwritten bytes to the back of the chunk
   queue, so a chunk enqueued next stays behind them in send order. *)
let spill t =
  let n = Wire.Writer.length t.wbuf - t.wpos in
  if n > 0 then begin
    Queue.push
      {
        data = String.sub (Wire.Writer.unsafe_contents t.wbuf) t.wpos n;
        off = 0;
        stop = n;
      }
      t.chunks;
    t.chunk_bytes <- t.chunk_bytes + n
  end;
  Wire.Writer.reset t.wbuf;
  t.wpos <- 0

let count_sent t =
  t.frames_sent <- t.frames_sent + 1;
  Trace.Counter.incr (counters ()).c_frames_sent

let send t msg =
  Wire.Frame.add t.wbuf Proto.encode_into msg;
  count_sent t

(* Enqueue an already-framed string. The string itself is immutable
   and may be simultaneously queued on any number of connections —
   that sharing is the whole point: the frame was encoded and CRC'd
   once for the lot. Small frames still coalesce (one counted copy
   into the accumulator) so fan-out of tiny envelopes keeps the
   syscall batching; large frames ride by reference, copy-free. *)
let send_preframed t (pf : Frame.preframed) =
  let c = counters () in
  Trace.Counter.incr c.c_fanout_shared;
  if pf.pf_len <= coalesce_limit then begin
    Wire.Writer.raw_sub t.wbuf pf.pf_buf ~pos:0 ~len:pf.pf_len;
    Trace.Counter.incr c.c_payload_copies
  end
  else begin
    spill t;
    Queue.push { data = pf.pf_buf; off = 0; stop = pf.pf_len } t.chunks;
    t.chunk_bytes <- t.chunk_bytes + pf.pf_len
  end;
  count_sent t

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* One [write] of [data.[off .. off+len-1]]: [Ok n] bytes taken (0
   when the kernel would block), [Error] when the peer is gone. *)
let write_some t data off len =
  match Unix.write_substring t.fd data off len with
  | n ->
      t.write_syscalls <- t.write_syscalls + 1;
      t.bytes_sent <- t.bytes_sent + n;
      let c = counters () in
      Trace.Counter.incr c.c_write_sys;
      Trace.Counter.add c.c_bytes_sent n;
      Ok n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      Ok 0
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Push the chunk queue, then the accumulator, at the kernel until it
   blocks or we drain. The accumulator is written where it lies. *)
let flush t : verdict =
  if t.closed then `Closed "closed"
  else
    let rec drain () =
      match Queue.peek_opt t.chunks with
      | Some chunk -> (
          let len = chunk.stop - chunk.off in
          match write_some t chunk.data chunk.off len with
          | Error e -> `Closed e
          | Ok n ->
              t.chunk_bytes <- t.chunk_bytes - n;
              if n = len then begin
                ignore (Queue.pop t.chunks);
                drain ()
              end
              else begin
                chunk.off <- chunk.off + n;
                `Blocked
              end)
      | None -> (
          let len = Wire.Writer.length t.wbuf - t.wpos in
          if len = 0 then `Ok
          else
            match
              write_some t (Wire.Writer.unsafe_contents t.wbuf) t.wpos len
            with
            | Error e -> `Closed e
            | Ok n when n = len ->
                Wire.Writer.reset t.wbuf;
                t.wpos <- 0;
                `Ok
            | Ok n ->
                t.wpos <- t.wpos + n;
                `Blocked)
    in
    drain ()

(* One read syscall; feed whatever arrived to the decoder. *)
let recv t : verdict =
  if t.closed then `Closed "closed"
  else
    match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> `Closed "eof"
    | n ->
        t.read_syscalls <- t.read_syscalls + 1;
        t.bytes_recv <- t.bytes_recv + n;
        let c = counters () in
        Trace.Counter.incr c.c_read_sys;
        Trace.Counter.add c.c_bytes_recv n;
        Frame.Decoder.feed t.dec (Bytes.unsafe_to_string t.scratch) 0 n;
        `Ok
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        `Blocked
    | exception Unix.Unix_error (e, _, _) ->
        `Closed (Unix.error_message e)

type popped = Msg of Proto.msg | Nothing | Bad of string

type popped_view =
  | View of Proto.view
  | View_nothing
  | View_bad of string

let pop_view t =
  match Frame.Decoder.pop_view t.dec with
  | Frame.Decoder.V_await -> View_nothing
  | Frame.Decoder.V_corrupt msg ->
      Trace.Counter.incr (counters ()).c_corrupt;
      View_bad msg
  | Frame.Decoder.V_frame (buf, off, len) -> (
      match Proto.decode_view buf ~off ~len with
      | Proto.V_none ->
          Trace.Counter.incr (counters ()).c_corrupt;
          View_bad "undecodable message"
      | v ->
          t.frames_recv <- t.frames_recv + 1;
          Trace.Counter.incr (counters ()).c_frames_recv;
          View v)

let pop t =
  match pop_view t with
  | View_nothing -> Nothing
  | View_bad msg -> Bad msg
  | View v -> (
      match v with
      | Proto.V_msg m -> Msg m
      | Proto.V_pub { pseq; cls; envelope } ->
          Msg (Proto.Pub { pseq; cls; envelope = Proto.slice_to_string envelope })
      | Proto.V_deliver { origin; pseq; cls; envelope } ->
          Msg
            (Proto.Deliver
               { origin; pseq; cls; envelope = Proto.slice_to_string envelope })
      | Proto.V_none -> Bad "undecodable message")

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  write_syscalls : int;
  read_syscalls : int;
}

let stats (t : t) =
  {
    frames_sent = t.frames_sent;
    frames_received = t.frames_recv;
    bytes_sent = t.bytes_sent;
    bytes_received = t.bytes_recv;
    write_syscalls = t.write_syscalls;
    read_syscalls = t.read_syscalls;
  }
