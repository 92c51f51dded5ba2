exception Truncated of string
exception Malformed of string

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 64) () =
    { buf = Bytes.create (max 1 capacity); len = 0 }

  let length w = w.len

  let ensure w n =
    let needed = w.len + n in
    if needed > Bytes.length w.buf then begin
      let cap = ref (Bytes.length w.buf * 2) in
      while !cap < needed do cap := !cap * 2 done;
      let fresh = Bytes.create !cap in
      Bytes.blit w.buf 0 fresh 0 w.len;
      w.buf <- fresh
    end

  let byte w b =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len (Char.chr (b land 0xff));
    w.len <- w.len + 1

  let varint w n =
    if n < 0 then invalid_arg "Wire.Writer.varint: negative";
    let rec loop n =
      if n < 0x80 then byte w n
      else begin
        byte w (n land 0x7f lor 0x80);
        loop (n lsr 7)
      end
    in
    loop n

  (* LEB128 of an int whose bit pattern is interpreted as unsigned:
     uses logical shifts so that "negative" patterns (top bit set)
     terminate. *)
  let uvarint w n =
    let rec loop n =
      if n >= 0 && n < 0x80 then byte w n
      else begin
        byte w (n land 0x7f lor 0x80);
        loop (n lsr 7)
      end
    in
    loop n

  let zigzag w n =
    (* Map signed to unsigned: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... *)
    uvarint w ((n lsl 1) lxor (n asr 62))

  let f64 w x =
    ensure w 8;
    let bits = Int64.bits_of_float x in
    for i = 0 to 7 do
      let shift = 8 * i in
      let b = Int64.to_int (Int64.shift_right_logical bits shift) land 0xff in
      Bytes.unsafe_set w.buf (w.len + i) (Char.chr b)
    done;
    w.len <- w.len + 8

  let bool w b = byte w (if b then 1 else 0)

  let raw w s =
    let n = String.length s in
    ensure w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n

  let raw_sub w s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Wire.Writer.raw_sub";
    ensure w len;
    Bytes.blit_string s pos w.buf w.len len;
    w.len <- w.len + len

  let string w s =
    varint w (String.length s);
    raw w s

  let string_sub w s ~pos ~len =
    varint w len;
    raw_sub w s ~pos ~len

  let contents w = Bytes.sub_string w.buf 0 w.len
  let unsafe_contents w = Bytes.unsafe_to_string w.buf
  let reset w = w.len <- 0
end

module Reader = struct
  type t = { src : string; mutable off : int; limit : int }

  let of_string s = { src = s; off = 0; limit = String.length s }

  (* A bounded view over [s.[off .. off+len-1]] without extracting the
     slice: [pos] stays absolute into [s], so offsets recorded by a
     slicing decoder index the original buffer directly. *)
  let of_substring s ~off ~len =
    if off < 0 || len < 0 || off + len > String.length s then
      invalid_arg "Wire.Reader.of_substring";
    { src = s; off; limit = off + len }

  let pos r = r.off
  let remaining r = r.limit - r.off
  let at_end r = remaining r = 0

  let need r n what =
    if remaining r < n then raise (Truncated what)

  let byte r =
    need r 1 "byte";
    let b = Char.code (String.unsafe_get r.src r.off) in
    r.off <- r.off + 1;
    b

  (* The 9th byte sits at shift 56. A non-negative int has 62 usable
     bits (bit 62 is the sign), so bits 0x40/0x80 there would either
     flip the sign or continue into a 10th byte — both used to be
     absorbed by [(b land 0x7f) lsl shift] dropping the overflowing
     bits, which silently mis-decodes hostile input. Raise instead:
     socket bytes are untrusted. *)
  let varint r =
    let rec loop acc shift =
      let b = byte r in
      if shift = 56 && b land 0xc0 <> 0 then
        raise (Malformed "varint overflow");
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else loop acc (shift + 7)
    in
    loop 0 0

  (* Unsigned companion of {!Writer.uvarint}: the full 63-bit pattern
     is legal (bit 62 set decodes to a "negative" int, which is what
     zigzag wants back), but a 10th byte never is. *)
  let uvarint r =
    let rec loop acc shift =
      let b = byte r in
      if shift = 56 && b land 0x80 <> 0 then
        raise (Malformed "varint overflow");
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else loop acc (shift + 7)
    in
    loop 0 0

  let zigzag r =
    let u = uvarint r in
    (u lsr 1) lxor (- (u land 1))

  let f64 r =
    need r 8 "f64";
    let bits = ref 0L in
    for i = 7 downto 0 do
      let b = Char.code (String.unsafe_get r.src (r.off + i)) in
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int b)
    done;
    r.off <- r.off + 8;
    Int64.float_of_bits !bits

  let bool r =
    match byte r with
    | 0 -> false
    | 1 -> true
    | b -> raise (Malformed (Printf.sprintf "bool tag %d" b))

  let raw r n =
    if n < 0 then raise (Malformed "negative length");
    need r n "raw";
    let s = String.sub r.src r.off n in
    r.off <- r.off + n;
    s

  let string r =
    let n = varint r in
    raw r n

  let skip r n =
    if n < 0 then raise (Malformed "negative length");
    need r n "skip";
    r.off <- r.off + n

  let skip_string r =
    let n = varint r in
    skip r n
end

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and
   xor-out 0xFFFFFFFF), slicing-by-8 over native ints. Table [k] maps a
   byte to its CRC contribution from [k] positions further back, so
   one step folds eight input bytes with eight independent lookups
   instead of a serial chain of eight. Row [k] lives at [k * 256] in
   one flat int array; entries fit in 32 bits, so nothing is boxed. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"

(* Little-endian 32-bit load as a non-negative int. Callers have
   bounds-checked the whole range already. *)
let load32 s i =
  let w = Int32.to_int (get32u s i) land 0xffffffff in
  if Sys.big_endian then
    ((w land 0xff) lsl 24)
    lor ((w land 0xff00) lsl 8)
    lor ((w lsr 8) land 0xff00)
    lor (w lsr 24)
  else w

(* The checksum of [s.[pos .. pos+len-1]] as a non-negative int in
   [0, 2^32); no bounds checks. *)
let crc_int s pos len =
  let t = crc_tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let lo = load32 s !i lxor !c in
    let hi = load32 s (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t
        ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wire.crc32_sub";
  Int32.of_int (crc_int s pos len)

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

(* The one checksummed framing, shared by the TCP transport and the
   durable log:

     [ payload length : u32 LE | crc32(payload) : u32 LE | payload ]

   A frame is built in place: [add] reserves the header, lets the
   caller encode the payload straight into the same writer, then
   patches length and CRC over the writer's own bytes — no payload
   string, no second buffer. [check] validates a frame where it lies. *)
module Frame = struct
  let header_bytes = 8
  let max_payload = 0x7fffffff

  let add w encode x =
    let start = w.Writer.len in
    Writer.ensure w header_bytes;
    w.len <- start + header_bytes;
    match encode w x with
    | () ->
        let n = w.len - start - header_bytes in
        if n > max_payload then begin
          w.len <- start;
          invalid_arg "Wire.Frame.add: payload too large"
        end;
        let crc = crc_int (Bytes.unsafe_to_string w.buf) (start + header_bytes) n in
        Bytes.set_int32_le w.buf start (Int32.of_int n);
        Bytes.set_int32_le w.buf (start + 4) (Int32.of_int crc)
    | exception e ->
        w.len <- start;
        raise e

  type status = Whole | Short | Bad_length | Bad_crc

  let payload_length s ~off = Int32.to_int (String.get_int32_le s off)

  let check ~max_len s ~off ~avail =
    if off < 0 || avail < 0 || off + avail > String.length s then
      invalid_arg "Wire.Frame.check";
    if avail < header_bytes then Short
    else
      let n = payload_length s ~off in
      if n < 0 || n > max_len then Bad_length
      else if avail - header_bytes < n then Short
      else if
        crc_int s (off + header_bytes) n
        = Int32.to_int (String.get_int32_le s (off + 4)) land 0xffffffff
      then Whole
      else Bad_crc
end
