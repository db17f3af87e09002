open Psd_cost
open Psd_mbuf

type arp_mode =
  | Arp_authoritative
  | Arp_cached of (Psd_ip.Addr.t -> Psd_link.Macaddr.t option)

type input_kind = Netisr_queue | Chan of Psd_mach.Pktchan.t

type t = {
  ctx : Ctx.t;
  netdev : Psd_mach.Netdev.t;
  ip : Psd_ip.Ip.t;
  tcp : Psd_tcp.Tcp.t;
  udp : Psd_udp.Udp.t;
  icmp : Psd_ip.Icmp.t option;
  arp_cache : Psd_arp.Cache.t;
  mutable resolver : Psd_arp.Resolver.t option;
  input : input_kind;
  sink : Psd_mach.Netdev.sink;
  mutable frames_in : int;
}

let from_user ctx =
  match ctx.Ctx.role with
  | Ctx.Kernel_stack -> false
  | Ctx.Server_stack | Ctx.Library_stack -> true

(* Encapsulate an IP packet and hand it to the device. *)
let encapsulate t ~dst_mac packet =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Ether_output
    (plat.Platform.ether_fixed + plat.Platform.arp_cache_hit);
  let buf, off = Mbuf.prepend packet Psd_link.Frame.header_size in
  Psd_link.Frame.set_header buf ~off ~dst:dst_mac
    ~src:(Psd_mach.Netdev.mac t.netdev)
    ~ethertype:Psd_link.Frame.ethertype_ip;
  Psd_util.Copies.count Psd_util.Copies.Tx_frame (Mbuf.length packet);
  Psd_mach.Netdev.transmit t.netdev ~ctx:t.ctx ~from_user:(from_user t.ctx)
    (Mbuf.to_bytes packet)

let send_arp t ~dst (p : Psd_arp.Packet.t) =
  let payload = Psd_arp.Packet.encode p in
  let frame =
    Bytes.create (Psd_link.Frame.header_size + Bytes.length payload)
  in
  Psd_link.Frame.set_header frame ~off:0 ~dst
    ~src:(Psd_mach.Netdev.mac t.netdev)
    ~ethertype:Psd_link.Frame.ethertype_arp;
  Bytes.blit payload 0 frame Psd_link.Frame.header_size (Bytes.length payload);
  Psd_mach.Netdev.transmit t.netdev ~ctx:t.ctx ~from_user:(from_user t.ctx)
    frame

let process_frame t frame =
  t.frames_in <- t.frames_in + 1;
  let plat = t.ctx.Ctx.plat in
  (* wrap as an mbuf chain and queue onto the stack's input queue *)
  let mbuf_queue_cost =
    match t.input with
    | Netisr_queue -> 0 (* folded into the kernel's netisr processing *)
    | Chan _ ->
      plat.Platform.mbuf_alloc + plat.Platform.mbuf_op + t.ctx.Ctx.sync_ns
  in
  Ctx.charge t.ctx Phase.Mbuf_queue mbuf_queue_cost;
  if Psd_link.Frame.is_valid frame then begin
    let ethertype = Psd_link.Frame.ethertype frame in
    let off = Psd_link.Frame.header_size in
    let len = Bytes.length frame - off in
    if ethertype = Psd_link.Frame.ethertype_ip then
      Psd_ip.Ip.input t.ip frame ~off ~len
    else if ethertype = Psd_link.Frame.ethertype_arp then
      match t.resolver with
      | Some r -> Psd_arp.Resolver.input_bytes r frame ~off ~len
      | None -> ()
  end

(* The netisr's first pass (see {!Psd_sim.Mailbox.serve}): an ARP frame
   the resolver finishes from its bytes, with no reply, so nothing can
   block; [process_frame]'s [Mbuf_queue] charge is 0 on the netisr. *)
let arp_finished t frame =
  Psd_link.Frame.is_valid frame
  && Psd_link.Frame.ethertype frame = Psd_link.Frame.ethertype_arp
  && (match t.resolver with
     | Some r ->
       let off = Psd_link.Frame.header_size in
       Psd_arp.Resolver.try_input_bytes r frame ~off
         ~len:(Bytes.length frame - off)
     | None -> true)
  && begin
    t.frames_in <- t.frames_in + 1;
    true
  end

let create ~ctx ~netdev ~addr ~routes ~arp ~arp_cache ~input ?rcv_buf
    ?delack_ns () =
  let ip = Psd_ip.Ip.create ~ctx ~addr ~routes () in
  let tcp = Psd_tcp.Tcp.create ~ctx ~ip ?default_rcv_buf:rcv_buf ?delack_ns () in
  let udp = Psd_udp.Udp.create ~ctx ~ip () in
  (* authoritative stacks (kernel, server) own the host's ICMP: they
     answer echoes and translate port-unreachables into UDP soft errors *)
  let icmp =
    match arp with
    | Arp_authoritative ->
      let icmp = Psd_ip.Icmp.create ~ctx ~ip () in
      Psd_udp.Udp.set_unreachable_hook udp (fun ~src ~original ->
          Psd_ip.Icmp.send_port_unreachable icmp ~dst:src ~original);
      Psd_ip.Icmp.on_unreachable icmp
        (fun ~orig_dst ~orig_proto ~orig_dst_port ->
          if orig_proto = Psd_ip.Header.proto_udp then
            Psd_udp.Udp.notify_unreachable udp ~dst:orig_dst
              ~port:orig_dst_port);
      Some icmp
    | Arp_cached _ -> None
  in
  let netisr_q = Psd_sim.Mailbox.create ctx.Ctx.eng in
  let t =
    {
      ctx;
      netdev;
      ip;
      tcp;
      udp;
      icmp;
      arp_cache;
      resolver = None;
      input;
      sink =
        (match input with
        | Netisr_queue ->
          Psd_mach.Netdev.Enqueue (Psd_sim.Mailbox.send netisr_q)
        | Chan chan ->
          Psd_mach.Netdev.May_block (Psd_mach.Pktchan.deliver chan));
      frames_in = 0;
    }
  in
  (match arp with
  | Arp_authoritative ->
    t.resolver <-
      Some
        (Psd_arp.Resolver.create ~eng:ctx.Ctx.eng ~cache:arp_cache
           ~my_ip:addr
           ~my_mac:(Psd_mach.Netdev.mac netdev)
           ~send:(fun ~dst p -> send_arp t ~dst p)
           ())
  | Arp_cached _ -> ());
  (* transmit hook: resolve the next hop, encapsulate, send *)
  Psd_ip.Ip.set_transmit ip (fun ~next_hop ~iface:_ packet ->
      match arp with
      | Arp_authoritative -> (
        match Psd_arp.Cache.lookup arp_cache next_hop with
        | Some mac -> encapsulate t ~dst_mac:mac packet
        | None -> (
          match t.resolver with
          | Some r ->
            Psd_arp.Resolver.resolve r next_hop (function
              | Some mac -> encapsulate t ~dst_mac:mac packet
              | None -> () (* unresolvable: drop, like BSD *))
          | None -> ()))
      | Arp_cached miss -> (
        match Psd_arp.Cache.lookup arp_cache next_hop with
        | Some mac -> encapsulate t ~dst_mac:mac packet
        | None -> (
          (* metastate cache miss: ask the operating-system server *)
          match miss next_hop with
          | Some mac ->
            Psd_arp.Cache.insert arp_cache next_hop mac;
            encapsulate t ~dst_mac:mac packet
          | None -> ())));
  (* input: a host stack's netisr consumes its queue as a woken task,
     finishing ARP frames that need no reply before it starts a fiber; a
     server or library stack's fiber takes the whole packet train
     accumulated on its channel per wakeup *)
  (match input with
  | Netisr_queue ->
    Psd_sim.Mailbox.serve netisr_q ~name:"stack-input"
      ~nonblocking:(arp_finished t) (process_frame t)
  | Chan chan ->
    Psd_sim.Engine.spawn ctx.Ctx.eng ~name:"stack-input" (fun () ->
        let rec loop () =
          List.iter (process_frame t) (Psd_mach.Pktchan.recv_batch chan);
          loop ()
        in
        loop ()));
  t

let ctx t = t.ctx
let ip t = t.ip
let tcp t = t.tcp
let udp t = t.udp
let addr t = Psd_ip.Ip.addr t.ip

let sink t = t.sink

let arp_resolver t = t.resolver

let icmp t = t.icmp

let frames_in t = t.frames_in
