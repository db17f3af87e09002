type proto = Tcp | Udp

type spec = {
  proto : proto;
  local_ip : int;
  local_port : int;
  remote_ip : int option;
  remote_port : int option;
}

let snaplen = 0xffff

(* Ethernet II offsets *)
let off_ethertype = 12
let off_ip = 14
let off_ip_frag = off_ip + 6
let off_ip_proto = off_ip + 9
let off_ip_src = off_ip + 12
let off_ip_dst = off_ip + 16

let ethertype_ip = 0x0800
let ethertype_arp = 0x0806

let proto_number = function Tcp -> 6 | Udp -> 17

let session spec =
  let open Insn in
  let open Asm in
  let check_remote_ip =
    match spec.remote_ip with
    | None -> []
    | Some ip ->
      [ I (Ld (W, Abs off_ip_src)); J (Jeq, K ip, "cont_rip", "reject");
        Label "cont_rip" ]
  in
  let check_remote_port =
    match spec.remote_port with
    | None -> []
    | Some port ->
      (* source port: first TCP/UDP header field, at x + 14 *)
      [ I (Ld (H, Ind off_ip)); J (Jeq, K port, "cont_rport", "reject");
        Label "cont_rport" ]
  in
  Asm.assemble_exn
    ([
       I (Ld (H, Abs off_ethertype));
       J (Jeq, K ethertype_ip, "is_ip", "reject");
       Label "is_ip";
       I (Ld (B, Abs off_ip_proto));
       J (Jeq, K (proto_number spec.proto), "proto_ok", "reject");
       Label "proto_ok";
       I (Ld (W, Abs off_ip_dst));
       J (Jeq, K spec.local_ip, "dst_ok", "reject");
       Label "dst_ok";
     ]
    @ check_remote_ip
    @ [
        (* Non-first fragment: ports are not present; accept on addresses. *)
        I (Ld (H, Abs off_ip_frag));
        J (Jset, K 0x1fff, "accept", "first_frag");
        Label "first_frag";
        I (Ldx (Msh off_ip));
        (* destination port at x + 14 + 2 *)
        I (Ld (H, Ind (off_ip + 2)));
        J (Jeq, K spec.local_port, "lport_ok", "reject");
        Label "lport_ok";
      ]
    @ check_remote_port
    @ [
        Label "accept";
        I (Ret (RetK snaplen));
        Label "reject";
        I (Ret (RetK 0));
      ])

(* --- flat session descriptors ----------------------------------------

   A session filter is entirely determined by its [spec]: a handful of
   equality tests against fields at fixed (or IHL-derived) offsets. The
   flat descriptor records exactly those fields so the kernel's
   demultiplexer can match a frame with direct byte comparisons instead
   of running the program at all.

   [flat_match] is a transliteration of the program [session] emits —
   same tests, same order, same out-of-bounds behaviour — and counts the
   instructions the interpreter would have executed on the same frame,
   so the simulated per-instruction demultiplexing cost is unchanged.
   The differential test suite checks (accept, steps) equality against
   the interpreter on random frames. The wildcard filters [arp] and
   [ip_all] get a second, smaller descriptor: the one ethertype they
   test. *)

type session_flat = {
  f_proto : int;  (** IP protocol number *)
  f_local_ip : int;
  f_local_port : int;
  f_remote_ip : int option;
  f_remote_port : int option;
}

type flat = Session of session_flat | Ethertype of int

let flat_of_spec spec =
  Session
  {
    f_proto = proto_number spec.proto;
    f_local_ip = spec.local_ip land 0xffffffff;
    (* same masking the VM applies to jump constants: a port outside
       0..0xffff can never equal a 16-bit load, in either engine *)
    f_local_port = spec.local_port land 0xffffffff;
    f_remote_ip = Option.map (fun ip -> ip land 0xffffffff) spec.remote_ip;
    f_remote_port = Option.map (fun p -> p land 0xffffffff) spec.remote_port;
  }

exception Done of int

let session_match f pkt ~off ~len =
  let steps = ref 0 in
  (* Each load/jump helper counts the one VM instruction it stands for.
     A load that would run off the end of the frame rejects immediately,
     as Vm.load_size does, with the faulting instruction counted. *)
  let ld_u8 rel =
    incr steps;
    if rel + 1 > len then raise (Done 0)
    else Char.code (Bytes.unsafe_get pkt (off + rel))
  in
  let ld_u16 rel =
    incr steps;
    if rel + 2 > len then raise (Done 0)
    else Psd_util.Codec.get_u16 pkt (off + rel)
  in
  let ld_u32 rel =
    incr steps;
    if rel + 4 > len then raise (Done 0)
    else Psd_util.Codec.get_u32i pkt (off + rel)
  in
  let jmp_to_ret v =
    (* the conditional jump, then the Ret at its target *)
    steps := !steps + 2;
    raise (Done v)
  in
  let jmp () = incr steps in
  let result =
    try
      let ety = ld_u16 off_ethertype in
      if ety <> ethertype_ip then jmp_to_ret 0 else jmp ();
      let proto = ld_u8 off_ip_proto in
      if proto <> f.f_proto then jmp_to_ret 0 else jmp ();
      let dst = ld_u32 off_ip_dst in
      if dst <> f.f_local_ip then jmp_to_ret 0 else jmp ();
      (match f.f_remote_ip with
      | None -> ()
      | Some ip ->
        let src = ld_u32 off_ip_src in
        if src <> ip then jmp_to_ret 0 else jmp ());
      let frag = ld_u16 off_ip_frag in
      if frag land 0x1fff <> 0 then jmp_to_ret snaplen else jmp ();
      let ihl4 = 4 * (ld_u8 off_ip land 0xf) (* ldx msh *) in
      let dport = ld_u16 (ihl4 + off_ip + 2) in
      if dport <> f.f_local_port then jmp_to_ret 0 else jmp ();
      (match f.f_remote_port with
      | None -> ()
      | Some p ->
        let sport = ld_u16 (ihl4 + off_ip) in
        if sport <> p then jmp_to_ret 0 else jmp ());
      incr steps (* the accept Ret *);
      snaplen
    with Done v -> v
  in
  (result, !steps)

(* The ethertype rung: [arp] and [ip_all] are one load, one jump and a
   Ret, and a frame too short for the load faults on it. Their three
   possible results are built once, so a match allocates nothing. *)
let ety_accept = (snaplen, 3)

let ety_reject = (0, 3)

let ety_short = (0, 1)

let ethertype_match ety pkt ~off ~len =
  if len < off_ethertype + 2 then ety_short
  else if Psd_util.Codec.get_u16 pkt (off + off_ethertype) = ety then
    ety_accept
  else ety_reject

let flat_match f pkt ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length pkt then
    invalid_arg "Filter.flat_match";
  match f with
  | Session s -> session_match s pkt ~off ~len
  | Ethertype ety -> ethertype_match ety pkt ~off ~len

let flat_run f pkt = flat_match f pkt ~off:0 ~len:(Bytes.length pkt)

let arp =
  let open Insn in
  let open Asm in
  Asm.assemble_exn
    [
      I (Ld (H, Abs off_ethertype));
      J (Jeq, K ethertype_arp, "accept", "reject");
      Label "accept";
      I (Ret (RetK snaplen));
      Label "reject";
      I (Ret (RetK 0));
    ]

let ip_all =
  let open Insn in
  let open Asm in
  Asm.assemble_exn
    [
      I (Ld (H, Abs off_ethertype));
      J (Jeq, K ethertype_ip, "accept", "reject");
      Label "accept";
      I (Ret (RetK snaplen));
      Label "reject";
      I (Ret (RetK 0));
    ]

let arp_flat = Ethertype ethertype_arp

let ip_all_flat = Ethertype ethertype_ip
