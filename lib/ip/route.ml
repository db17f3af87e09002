type next_hop = Direct | Gateway of Addr.t

type entry = { net : Addr.t; mask : Addr.t; hop : next_hop; iface : int }

type t = { mutable entries : entry list; mutable generation : int }

let create () = { entries = []; generation = 0 }

let mask_bits mask =
  let rec count m acc = if m = 0 then acc else count (m lsr 1) (acc + (m land 1)) in
  count (Addr.to_int mask) 0

let sort entries =
  List.stable_sort (fun a b -> compare (mask_bits b.mask) (mask_bits a.mask))
    entries

let add t e =
  let entries =
    List.filter (fun e' -> not (e'.net = e.net && e'.mask = e.mask)) t.entries
  in
  t.entries <- sort (e :: entries);
  t.generation <- t.generation + 1

let lookup t dst =
  let rec find = function
    | [] -> None
    | e :: rest ->
      if Addr.in_subnet dst ~net:e.net ~mask:e.mask then
        match e.hop with
        | Direct -> Some (dst, e.iface)
        | Gateway g -> Some (g, e.iface)
      else find rest
  in
  find t.entries

let entries t = t.entries

let generation t = t.generation
