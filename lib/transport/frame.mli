(** Length-prefixed, CRC-checked stream framing for the TCP transport.

    Frames are {!Tpbs_serial.Wire.Frame}s, [len u32 LE | crc32(payload)
    u32 LE | payload] — the one framing {!Tpbs_store.Record} gives
    durable log records too — so a byte stream becomes self-framing
    and every frame is independently checkable. Unlike the on-disk scan there is no
    resynchronization: within a TCP connection bytes never reorder, so
    a bad length or CRC means the stream itself is damaged and the
    connection must be torn down. *)

val header_bytes : int
val default_max_frame : int

val frame : string -> string
(** Wrap a payload in a frame header. *)

type preframed = private { pf_buf : string; pf_len : int }
(** A frame built once and shared by reference across any number of
    connections: the fan-out currency of the encode-once delivery
    path. The frame is [pf_buf.[0 .. pf_len-1]] — the storage it was
    sealed in, taken over without a copy; bytes past [pf_len] are
    slack. Private so only bytes that really carry a valid header +
    CRC can bypass per-connection encoding. *)

val preframe :
  capacity:int ->
  (Tpbs_serial.Wire.Writer.t -> 'a -> unit) ->
  'a ->
  preframed
(** [preframe ~capacity encode x] encodes [x] straight into a fresh
    frame ({!Tpbs_serial.Wire.Frame.add}) and seals it in place.
    [capacity] is a payload size hint; an exact one leaves no slack.
    One encode + one CRC here covers every connection the frame is
    sent on. *)

val preframed_bytes : preframed -> string
(** The framed bytes (header included) as a string of their own — a
    copy only when the storage has slack. *)

val preframed_length : preframed -> int
(** Payload length (header excluded). *)

(** Incremental, fd-free frame parser. Feed it whatever the socket
    returned — a byte at a time if need be — and pop complete frames.
    Corruption is sticky: once a frame is condemned, every later [pop]
    reports the same verdict and fed bytes are discarded. *)
module Decoder : sig
  type t
  type result = Frame of string | Await | Corrupt of string

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] (default {!default_max_frame}) bounds the accepted
      payload size; larger (or negative) length prefixes condemn the
      stream. *)

  val feed : t -> string -> int -> int -> unit
  (** [feed t s off len] appends [s.[off .. off+len-1]].
      @raise Invalid_argument on an out-of-bounds slice. *)

  val feed_string : t -> string -> unit

  val pop : t -> result
  (** Extract the next complete frame: [Await] means feed more bytes,
      [Corrupt] is fatal for the connection. Copies the payload out;
      {!pop_view} is the allocation-free form. *)

  type view_result =
    | V_frame of string * int * int
        (** [(buf, off, len)]: payload view into the decoder's own
            buffer. *)
    | V_await
    | V_corrupt of string

  val pop_view : t -> view_result
  (** Like {!pop} but zero-copy: the payload is a slice of the
      decoder's internal buffer and the CRC is checked in place. The
      view is only valid until the next {!feed} (which may compact or
      reallocate the buffer) — finish with it, or copy, before feeding
      again. *)

  val buffered : t -> int
  (** Unconsumed bytes currently held. *)

  val frames : t -> int
  (** Frames successfully decoded so far. *)

  val is_dead : t -> bool
end
