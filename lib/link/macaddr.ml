type t = string

let of_string s =
  if String.length s <> 6 then invalid_arg "Macaddr.of_string";
  s

let of_host_id id =
  let b = Bytes.create 6 in
  Bytes.set b 0 '\x02' (* locally administered, unicast *);
  Bytes.set b 1 '\x00';
  Bytes.set_uint16_be b 2 (id lsr 16);
  Bytes.set_uint16_be b 4 (id land 0xffff);
  Bytes.unsafe_to_string b

let broadcast = "\xff\xff\xff\xff\xff\xff"

let equal = String.equal

let write t b off = Bytes.blit_string t 0 b off 6

let read b off = Bytes.sub_string b off 6

let equal_bytes t b off =
  String.get_uint16_ne t 0 = Bytes.get_uint16_ne b off
  && String.get_uint16_ne t 2 = Bytes.get_uint16_ne b (off + 2)
  && String.get_uint16_ne t 4 = Bytes.get_uint16_ne b (off + 4)

let pp fmt t =
  Format.fprintf fmt "%02x:%02x:%02x:%02x:%02x:%02x" (Char.code t.[0])
    (Char.code t.[1]) (Char.code t.[2]) (Char.code t.[3]) (Char.code t.[4])
    (Char.code t.[5])

let to_string t = t
