open Psd_util
open Psd_mbuf

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags =
  { fin = false; syn = false; rst = false; psh = false; ack = false;
    urg = false }

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : flags;
  window : int;
  mss : int option;
}

let base_size = 20

let header_size t = match t.mss with None -> base_size | Some _ -> 24

let flags_byte f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_byte b =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
    urg = b land 0x20 <> 0;
  }

let encode t ~src ~dst ~payload =
  let hlen = header_size t in
  let buf, off = Mbuf.prepend payload hlen in
  Codec.set_u16 buf off t.src_port;
  Codec.set_u16 buf (off + 2) t.dst_port;
  Codec.set_u32i buf (off + 4) t.seq;
  Codec.set_u32i buf (off + 8) t.ack;
  Codec.set_u8 buf (off + 12) ((hlen / 4) lsl 4);
  Codec.set_u8 buf (off + 13) (flags_byte t.flags);
  Codec.set_u16 buf (off + 14) t.window;
  Codec.set_u16 buf (off + 16) 0 (* checksum *);
  Codec.set_u16 buf (off + 18) 0 (* urgent pointer: unused *);
  (match t.mss with
  | None -> ()
  | Some mss ->
    Codec.set_u8 buf (off + 20) 2;
    Codec.set_u8 buf (off + 21) 4;
    Codec.set_u16 buf (off + 22) mss);
  (* Checksum over pseudo-header + header + data, run directly over the
     chain's segments — odd-length segment boundaries are handled by the
     RFC 1071 byte-swap identity, so no flatten is needed. *)
  let whole = payload in
  let total = Mbuf.length whole in
  let acc =
    Psd_ip.Header.pseudo_checksum ~src ~dst ~proto:Psd_ip.Header.proto_tcp
      ~len:total
  in
  let acc = Mbuf.checksum_add whole acc in
  Codec.set_u16 buf (off + 16) (Checksum.finish acc);
  whole

let parse_mss buf off hlen =
  (* Walk options between offset 20 and hlen. *)
  let rec walk i =
    if i >= hlen then None
    else
      match Codec.get_u8 buf (off + i) with
      | 0 -> None (* end of options *)
      | 1 -> walk (i + 1) (* nop *)
      | 2 when i + 4 <= hlen -> Some (Codec.get_u16 buf (off + i + 2))
      | _ ->
        if i + 1 >= hlen then None
        else begin
          let optlen = Codec.get_u8 buf (off + i + 1) in
          if optlen < 2 then None else walk (i + optlen)
        end
  in
  walk 20

type decode_error = Truncated | Bad_offset | Bad_checksum

let pp_decode_error fmt e =
  Format.fprintf fmt "%s"
    (match e with
    | Truncated -> "tcp: segment too short"
    | Bad_offset -> "tcp: bad data offset"
    | Bad_checksum -> "tcp: bad checksum")

let decode ?(off = 0) ?len b ~src ~dst =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if len < base_size then Error Truncated
  else begin
    let hlen = Codec.get_u8 b (off + 12) lsr 4 * 4 in
    if hlen < base_size || hlen > len then Error Bad_offset
    else begin
      let total = len in
      let acc =
        Psd_ip.Header.pseudo_checksum ~src ~dst ~proto:Psd_ip.Header.proto_tcp
          ~len:total
      in
      let acc = Checksum.add_bytes acc b ~off ~len:total in
      if Checksum.finish acc <> 0 then Error Bad_checksum
      else begin
        let flags = flags_of_byte (Codec.get_u8 b (off + 13)) in
        let header =
          {
            src_port = Codec.get_u16 b off;
            dst_port = Codec.get_u16 b (off + 2);
            seq = Codec.get_u32i b (off + 4);
            ack = Codec.get_u32i b (off + 8);
            flags;
            window = Codec.get_u16 b (off + 14);
            mss = (if flags.syn then parse_mss b off hlen else None);
          }
        in
        (* zero-copy payload: a view into the decode buffer *)
        let payload = Mbuf.of_bytes_view b ~off:(off + hlen) ~len:(len - hlen) in
        Ok (header, payload)
      end
    end
  end
