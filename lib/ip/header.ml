open Psd_util

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  ttl : int;
  ident : int;
  dont_frag : bool;
  more_frags : bool;
  frag_off : int;
  total_len : int;
}

let size = 20

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type error =
  | Too_short
  | Bad_version of int
  | Bad_header_length of int
  | Bad_checksum
  | Length_mismatch

let pp_error fmt = function
  | Too_short -> Format.fprintf fmt "packet shorter than IP header"
  | Bad_version v -> Format.fprintf fmt "IP version %d" v
  | Bad_header_length l -> Format.fprintf fmt "header length %d" l
  | Bad_checksum -> Format.fprintf fmt "bad header checksum"
  | Length_mismatch -> Format.fprintf fmt "total_len exceeds packet"

let encode_into b ~off t =
  assert (t.frag_off mod 8 = 0);
  Codec.set_u8 b off 0x45;
  Codec.set_u8 b (off + 1) 0 (* tos *);
  Codec.set_u16 b (off + 2) t.total_len;
  Codec.set_u16 b (off + 4) t.ident;
  let flags =
    (if t.dont_frag then 0x4000 else 0)
    lor (if t.more_frags then 0x2000 else 0)
    lor (t.frag_off / 8)
  in
  Codec.set_u16 b (off + 6) flags;
  Codec.set_u8 b (off + 8) t.ttl;
  Codec.set_u8 b (off + 9) t.proto;
  Codec.set_u16 b (off + 10) 0;
  Codec.set_u32i b (off + 12) (Addr.to_int t.src);
  Codec.set_u32i b (off + 16) (Addr.to_int t.dst);
  let cksum = Checksum.of_bytes b ~off ~len:size in
  Codec.set_u16 b (off + 10) cksum

let decode ?(truncated = false) b ~off ~len =
  if len < size then Error Too_short
  else begin
    let vihl = Codec.get_u8 b off in
    let version = vihl lsr 4 in
    let ihl = (vihl land 0xf) * 4 in
    if version <> 4 then Error (Bad_version version)
    else if ihl <> size then Error (Bad_header_length ihl)
    else if not (Checksum.valid b ~off ~len:size) then Error Bad_checksum
    else begin
      let total_len = Codec.get_u16 b (off + 2) in
      if (total_len > len && not truncated) || total_len < size then
        Error Length_mismatch
      else begin
        let flags = Codec.get_u16 b (off + 6) in
        Ok
          {
            src = Addr.of_int (Codec.get_u32i b (off + 12));
            dst = Addr.of_int (Codec.get_u32i b (off + 16));
            proto = Codec.get_u8 b (off + 9);
            ttl = Codec.get_u8 b (off + 8);
            ident = Codec.get_u16 b (off + 4);
            dont_frag = flags land 0x4000 <> 0;
            more_frags = flags land 0x2000 <> 0;
            frag_off = (flags land 0x1fff) * 8;
            total_len;
          }
      end
    end
  end

(* Forwarding hop: decrement TTL in place and patch the stored checksum
   incrementally (RFC 1624) — the TTL shares a 16-bit word with the
   protocol field, at header offset 8. *)
let decrement_ttl b ~off =
  let old_word = Codec.get_u16 b (off + 8) in
  let ttl = old_word lsr 8 in
  if ttl = 0 then invalid_arg "Header.decrement_ttl: ttl is zero";
  let new_word = old_word - 0x100 in
  Codec.set_u16 b (off + 8) new_word;
  let cksum = Codec.get_u16 b (off + 10) in
  Codec.set_u16 b (off + 10)
    (Checksum.update ~cksum ~old:old_word ~new_:new_word)

let pseudo_checksum ~src ~dst ~proto ~len =
  let acc = Checksum.empty in
  let acc = Checksum.add_u16 acc (Addr.to_int src lsr 16) in
  let acc = Checksum.add_u16 acc (Addr.to_int src land 0xffff) in
  let acc = Checksum.add_u16 acc (Addr.to_int dst lsr 16) in
  let acc = Checksum.add_u16 acc (Addr.to_int dst land 0xffff) in
  let acc = Checksum.add_u16 acc proto in
  Checksum.add_u16 acc len
