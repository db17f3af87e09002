open Psd_cost

type iface = {
  index : int;
  netdev : Psd_mach.Netdev.t;
  addr : Psd_ip.Addr.t;
  cache : Psd_arp.Cache.t;
  resolver : Psd_arp.Resolver.t;
}

type t = {
  host : Psd_mach.Host.t;
  ctx : Ctx.t;
  ifaces : iface array;
  routes : Psd_ip.Route.t;
  inbox : (int * Bytes.t) Psd_sim.Mailbox.t;
  mutable forwarded : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
}

let forwarded t = t.forwarded
let dropped_ttl t = t.dropped_ttl

(* Atomic for the same reason as [System.mac_counter]: routers may be
   built from several shards' setup code. Router ids start at 2^31,
   beyond any host count: with overlapping ranges, a process that
   builds many topologies (a benchmark repeating a farm) eventually
   gives some host the MAC of its own gateway. *)
let mac_counter = Atomic.make 0x8000_0000

let fresh_mac () =
  Psd_link.Macaddr.of_host_id (Atomic.fetch_and_add mac_counter 1 + 1)

let send_arp t iface ~dst (p : Psd_arp.Packet.t) =
  let payload = Psd_arp.Packet.encode p in
  let frame =
    Bytes.create (Psd_link.Frame.header_size + Bytes.length payload)
  in
  Psd_link.Frame.set_header frame ~off:0 ~dst
    ~src:(Psd_mach.Netdev.mac iface.netdev)
    ~ethertype:Psd_link.Frame.ethertype_arp;
  Bytes.blit payload 0 frame Psd_link.Frame.header_size
    (Bytes.length payload);
  Psd_mach.Netdev.transmit iface.netdev ~ctx:t.ctx ~from_user:false frame

(* Forward one IP packet that arrived on [in_iface]. *)
let forward t ~in_iface frame =
  ignore in_iface;
  let plat = Psd_mach.Host.plat t.host in
  let off = Psd_link.Frame.header_size in
  let len = Bytes.length frame - off in
  Ctx.charge t.ctx Phase.Ip_intr
    (plat.Platform.ip_fixed + plat.Platform.route_lookup);
  match Psd_ip.Header.decode frame ~off ~len with
  | Error _ -> ()
  | Ok hdr ->
    let local =
      Array.exists
        (fun i -> Psd_ip.Addr.equal i.addr hdr.Psd_ip.Header.dst)
        t.ifaces
    in
    if local then () (* the router itself is not an endpoint *)
    else if hdr.Psd_ip.Header.ttl <= 1 then
      t.dropped_ttl <- t.dropped_ttl + 1
    else begin
      match Psd_ip.Route.lookup t.routes hdr.Psd_ip.Header.dst with
      | None -> t.dropped_no_route <- t.dropped_no_route + 1
      | Some (next_hop, out_index) ->
        let out = t.ifaces.(out_index) in
        (* rewrite TTL in place; RFC 1624 incremental checksum update
           patches the stored checksum without re-summing the header *)
        let packet = Bytes.sub frame off (hdr.Psd_ip.Header.total_len) in
        Psd_ip.Header.decrement_ttl packet ~off:0;
        Psd_arp.Resolver.resolve out.resolver next_hop (function
          | None -> t.dropped_no_route <- t.dropped_no_route + 1
          | Some mac ->
            t.forwarded <- t.forwarded + 1;
            let out_frame =
              Bytes.create (Psd_link.Frame.header_size + Bytes.length packet)
            in
            Psd_link.Frame.set_header out_frame ~off:0 ~dst:mac
              ~src:(Psd_mach.Netdev.mac out.netdev)
              ~ethertype:Psd_link.Frame.ethertype_ip;
            Bytes.blit packet 0 out_frame Psd_link.Frame.header_size
              (Bytes.length packet);
            Psd_mach.Netdev.transmit out.netdev ~ctx:t.ctx ~from_user:false
              out_frame)
    end

let process t (idx, frame) =
  let iface = t.ifaces.(idx) in
  if Psd_link.Frame.is_valid frame then begin
    let ethertype = Psd_link.Frame.ethertype frame in
    if ethertype = Psd_link.Frame.ethertype_arp then begin
      match
        Psd_arp.Packet.decode frame ~off:Psd_link.Frame.header_size
          ~len:(Bytes.length frame - Psd_link.Frame.header_size)
      with
      | Ok p -> Psd_arp.Resolver.input iface.resolver p
      | Error _ -> ()
    end
    else if ethertype = Psd_link.Frame.ethertype_ip then
      forward t ~in_iface:iface frame
  end

let create ~eng ~name ~ifaces () =
  let plat = Platform.decstation in
  let host = Psd_mach.Host.create ~eng ~plat ~name in
  let ctx =
    Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu host) ~plat
      ~role:Ctx.Kernel_stack
  in
  let routes = Psd_ip.Route.create () in
  let inbox = Psd_sim.Mailbox.create eng in
  let t =
    {
      host;
      ctx;
      ifaces = [||];
      routes;
      inbox;
      forwarded = 0;
      dropped_ttl = 0;
      dropped_no_route = 0;
    }
  in
  let make_iface index (segment, addr_s) =
    let addr = Psd_ip.Addr.of_string addr_s in
    let netdev = Psd_mach.Netdev.create host segment ~mac:(fresh_mac ()) in
    let cache = Psd_arp.Cache.create eng () in
    (* temporary resolver: rebuilt below once the record exists *)
    let iface_ref = ref None in
    let resolver =
      Psd_arp.Resolver.create ~eng ~cache ~my_ip:addr
        ~my_mac:(Psd_mach.Netdev.mac netdev)
        ~send:(fun ~dst p ->
          match !iface_ref with
          | Some iface -> send_arp t iface ~dst p
          | None -> ())
        ()
    in
    let iface = { index; netdev; addr; cache; resolver } in
    iface_ref := Some iface;
    Psd_ip.Route.add routes
      {
        Psd_ip.Route.net =
          Psd_ip.Addr.of_int (Psd_ip.Addr.to_int addr land 0xffffff00);
        mask = Psd_ip.Addr.of_string "255.255.255.0";
        hop = Psd_ip.Route.Direct;
        iface = index;
      };
    (* the router hears everything IP + ARP on each segment; the
       interrupt only queues the frame for the forwarder *)
    let sink =
      Psd_mach.Netdev.Enqueue
        (fun frame -> Psd_sim.Mailbox.send inbox (index, frame))
    in
    let (_ : Psd_mach.Netdev.filter_id) =
      Psd_mach.Netdev.attach netdev ~prio:100
        (Flat Psd_bpf.Filter.ip_all_flat) ~sink
    in
    let (_ : Psd_mach.Netdev.filter_id) =
      Psd_mach.Netdev.attach netdev ~prio:50 (Flat Psd_bpf.Filter.arp_flat)
        ~sink
    in
    iface
  in
  let t = { t with ifaces = Array.of_list (List.mapi make_iface ifaces) } in
  Psd_sim.Mailbox.serve t.inbox ~name:(name ^ "-forwarder") (process t);
  t
