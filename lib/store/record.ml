module Codec = Tpbs_serial.Codec
module Wire = Tpbs_serial.Wire

(* One durable log record is one {!Wire.Frame}:

     [ payload length : u32 LE | crc32(payload) : u32 LE | payload ]

   where the payload is the ordinary lib/serial encoding of
   [List [Int op; Str key; Str value]]. The length prefix makes the
   scan self-framing; the CRC makes every record independently
   checkable, so a recovery scan can tell a torn tail (clean partial
   write) from bit rot without trusting anything that follows. *)

type op = Put | Delete

let header_bytes = Wire.Frame.header_bytes

let encode_payload w (op, key, value) =
  Codec.encode_list_header w 3;
  Codec.encode_into w (Int (match op with Put -> 0 | Delete -> 1));
  Codec.encode_str_sub w key ~pos:0 ~len:(String.length key);
  Codec.encode_str_sub w value ~pos:0 ~len:(String.length value)

let frame ~op ~key ~value =
  (* tags and varints fit in 16 bytes beside the two strings *)
  let w =
    Wire.Writer.create
      ~capacity:(header_bytes + 16 + String.length key + String.length value)
      ()
  in
  Wire.Frame.add w encode_payload (op, key, value);
  Wire.Writer.contents w

type read_result =
  | Record of op * string * string * int  (** decoded record, next offset *)
  | End  (** clean end of the segment *)
  | Torn  (** the segment ends inside a record: a partial final write *)
  | Corrupt  (** bad length field, CRC mismatch, or undecodable payload *)

(* Decode the payload where it lies: only the key and value are cut
   out of the segment buffer. *)
let decode_payload buf ~off ~len ~next =
  let r = Wire.Reader.of_substring buf ~off ~len in
  let str () =
    match Codec.str_pos r with
    | Some (pos, n) -> String.sub buf pos n
    | None -> raise (Codec.Decode_error "record field is not a string")
  in
  try
    match Codec.list_header r with
    | Some 3 -> (
        match Codec.int_prefix r with
        | Some ((0 | 1) as o) ->
            let key = str () in
            let value = str () in
            if Wire.Reader.at_end r then
              Record ((if o = 0 then Put else Delete), key, value, next)
            else Corrupt
        | _ -> Corrupt)
    | _ -> Corrupt
  with Wire.Truncated _ | Wire.Malformed _ | Codec.Decode_error _ -> Corrupt

let read buf off =
  let avail = String.length buf - off in
  if avail <= 0 then End
  else
    match Wire.Frame.check ~max_len:max_int buf ~off ~avail with
    | Wire.Frame.Short -> Torn
    | Wire.Frame.Bad_length | Wire.Frame.Bad_crc -> Corrupt
    | Wire.Frame.Whole ->
        let n = Wire.Frame.payload_length buf ~off in
        decode_payload buf ~off:(off + header_bytes) ~len:n
          ~next:(off + header_bytes + n)
