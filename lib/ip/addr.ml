type t = int

let of_octets a b c d =
  let octet v = v >= 0 && v <= 255 in
  if not (octet a && octet b && octet c && octet d) then
    invalid_arg "Addr.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match (int_of_string a, int_of_string b, int_of_string c, int_of_string d)
    with
    | a, b, c, d -> of_octets a b c d
    | exception Failure _ -> invalid_arg ("Addr.of_string: " ^ s))
  | _ -> invalid_arg ("Addr.of_string: " ^ s)

let to_int t = t

let of_int v = v land 0xffffffff

let broadcast = 0xffffffff

let pp fmt t =
  Format.fprintf fmt "%d.%d.%d.%d"
    ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff)
    (t land 0xff)

let to_string t = Format.asprintf "%a" pp t

let equal = Int.equal

let in_subnet t ~net ~mask = t land mask = net land mask

(* an address is an int: hash and compare it without the polymorphic
   primitives *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal

  let hash k =
    let h = k * 0x1e3779b97f4a7c15 in
    (h lxor (h lsr 31)) land max_int
end)
