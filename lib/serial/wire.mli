(** Low-level wire format: growable write buffers and bounds-checked
    readers, with variable-length integer encodings.

    This is the byte-level substrate of the default serialization
    mechanism (LM1 in the paper): obvents are turned into conveyable
    low-level messages through this module. *)

(** {1 Errors} *)

exception Truncated of string
(** Raised by readers when the input ends before a complete datum. *)

exception Malformed of string
(** Raised by readers on structurally invalid input (e.g. an
    overlong varint or a bad tag). *)

(** {1 Writers} *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh empty buffer. [capacity] is an initial size hint. *)

  val length : t -> int
  (** Number of bytes written so far. *)

  val byte : t -> int -> unit
  (** Append one byte; the argument is masked to 8 bits. *)

  val varint : t -> int -> unit
  (** LEB128 encoding of a non-negative integer. Negative arguments
      are rejected with [Invalid_argument]. *)

  val uvarint : t -> int -> unit
  (** LEB128 of an int whose 63-bit pattern is interpreted as
      unsigned; terminates for "negative" patterns (top bit set). *)

  val zigzag : t -> int -> unit
  (** Signed integer via zigzag + LEB128. *)

  val f64 : t -> float -> unit
  (** IEEE 754 double, little endian. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Length-prefixed byte string. *)

  val raw : t -> string -> unit
  (** Append bytes with no length prefix. *)

  val raw_sub : t -> string -> pos:int -> len:int -> unit
  (** [raw_sub w s ~pos ~len] appends [s.[pos .. pos+len-1]] with no
      length prefix and no intermediate slice allocation.
      @raise Invalid_argument on an out-of-bounds slice. *)

  val string_sub : t -> string -> pos:int -> len:int -> unit
  (** Length-prefixed append of [s.[pos .. pos+len-1]], the
      slice-sourced twin of {!string} — byte-identical output to
      [string w (String.sub s pos len)] without the copy. *)

  val contents : t -> string
  (** Snapshot of everything written so far. *)

  val unsafe_contents : t -> string
  (** The writer's own storage, without a copy: bytes
      [0 .. length w - 1] are the contents, anything after is slack.
      The string aliases mutable memory and is invalidated by the next
      write or {!reset} — hand it to a syscall, or copy, first. *)

  val reset : t -> unit
  (** Empty the writer, keeping its capacity for reuse. *)
end

(** {1 Readers} *)

module Reader : sig
  type t

  val of_string : string -> t
  (** Reader positioned at the start of [s]. *)

  val of_substring : string -> off:int -> len:int -> t
  (** Reader bounded to [s.[off .. off+len-1]] without extracting the
      slice. {!pos} stays absolute into [s], so offsets read off this
      reader index the original buffer — the substrate of zero-copy
      payload views over a framing buffer.
      @raise Invalid_argument on an out-of-bounds slice. *)

  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool

  val byte : t -> int

  val varint : t -> int
  (** Non-negative LEB128.
      @raise Malformed ["varint overflow"] when the encoding carries
      bits past bit 61 (which would flip the sign of a 63-bit int) or
      continues into a 10th byte — hostile input, not a round trip of
      {!Writer.varint}. *)

  val uvarint : t -> int
  (** Unsigned LEB128 over the full 63-bit pattern (inverse of
      {!Writer.uvarint}); only a 10th continuation byte is rejected.
      @raise Malformed ["varint overflow"] on a 10-byte encoding. *)

  val zigzag : t -> int
  val f64 : t -> float
  val bool : t -> bool
  val string : t -> string
  val raw : t -> int -> string
  (** [raw r n] reads exactly [n] bytes. *)

  val skip : t -> int -> unit
  (** [skip r n] advances past [n] bytes without materializing them. *)

  val skip_string : t -> unit
  (** Advance past one length-prefixed byte string, allocation-free. *)
end

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3: reflected polynomial [0xEDB88320], init and
    xor-out [0xFFFFFFFF]; ["123456789"] gives [0xCBF43926]). Computed
    slicing-by-8 over native ints: eight bytes per step through one
    flat 8×256 table, then a byte-wise tail. Guards every {!Frame}. *)

val crc32_sub : string -> pos:int -> len:int -> int32
(** {!crc32} over [s.[pos .. pos+len-1]] without extracting the slice
    — lets a stream decoder check a frame in place.
    @raise Invalid_argument on an out-of-bounds slice. *)

(** {1 Checksummed frames}

    The one framing of the system, shared by the TCP transport and the
    durable log:

    {v [ payload length : u32 LE | crc32(payload) : u32 LE | payload ] v}

    The length prefix makes a byte stream self-framing; the CRC makes
    each frame independently checkable. Frames are sealed and verified
    in place: no payload string is built on the way out, none is cut
    on the way in. *)
module Frame : sig
  val header_bytes : int
  (** [8]: length + CRC. *)

  val add : Writer.t -> (Writer.t -> 'a -> unit) -> 'a -> unit
  (** [add w encode x] appends one frame to [w]: it reserves the
      header, runs [encode w x] to write the payload straight into
      [w], then patches the length and the CRC over [w]'s own bytes.
      If [encode] raises, [w] is rolled back to where it was and the
      exception is re-raised.
      @raise Invalid_argument on a payload of 2{^31} bytes or more. *)

  type status =
    | Whole  (** a complete frame whose CRC matches *)
    | Short  (** fewer bytes than the header announces (or no header) *)
    | Bad_length
        (** the length field is negative (top bit set) or above the
            caller's bound *)
    | Bad_crc  (** complete, but the payload fails its CRC *)

  val check : max_len:int -> string -> off:int -> avail:int -> status
  (** [check ~max_len s ~off ~avail] classifies the frame starting at
      [s.[off]], given that [avail] bytes from there are present. On
      [Whole] the payload is [s.[off + header_bytes ..]] of
      {!payload_length} bytes. The checks run in order — header
      present, length in [0 .. max_len], payload present, CRC — so a
      wild length is [Bad_length] even before its bytes arrive.
      @raise Invalid_argument on an out-of-bounds range. *)

  val payload_length : string -> off:int -> int
  (** The raw length field of the frame at [off], sign-extended: a
      field with the top bit set reads negative. *)
end
