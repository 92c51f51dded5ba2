(** Framing of individual durable-log records: each record is one
    {!Tpbs_serial.Wire.Frame} (CRC32-guarded, length-prefixed) around
    the lib/serial encoding of [[op; key; value]]. *)

type op = Put | Delete

val header_bytes : int
(** Bytes of framing before the payload (length + CRC). *)

val frame : op:op -> key:string -> value:string -> string
(** The complete on-disk byte string for one record. *)

type read_result =
  | Record of op * string * string * int
      (** [Record (op, key, value, next_offset)] *)
  | End  (** clean end of the segment *)
  | Torn  (** the segment ends inside a record: a partial final write *)
  | Corrupt
      (** a length field with the top bit set, a CRC mismatch, or a
          payload that does not decode *)

val read : string -> int -> read_result
(** [read buf off] decodes the record starting at [off]: the CRC is
    checked in place and only the key and value are copied out.
    Never raises: every malformation maps to [Torn] or [Corrupt]. *)
