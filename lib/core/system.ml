open Psd_cost

(* Where this host's sessions start: in a stack on the host itself (the
   kernel's, or the smart NIC's) that every application shares, or in
   the operating-system server. *)
type base = On_host of Sockets.local | Os of Os_server.t

type t = {
  eng : Psd_sim.Engine.t;
  host : Psd_mach.Host.t;
  config : Config.t;
  netdev : Psd_mach.Netdev.t;
  addr : Psd_ip.Addr.t;
  routes : Psd_ip.Route.t;
  base : base;
  mutable app_stacks : Netstack.t list;
  mutable ctxs : Ctx.t list; (* every context on this host *)
  rcv_buf : int option;
  delack_ns : int option;
}

(* Atomic: systems may be built on several shards' engines (each shard
   builds its own hosts, but construction order across shards is not
   synchronized). Workloads that need identical MACs across partition
   choices build hosts in a fixed global order before running. *)
let mac_counter = Atomic.make 0

let fresh_mac () =
  Psd_link.Macaddr.of_host_id (Atomic.fetch_and_add mac_counter 1 + 1)

let create ~eng ~segment ~config ?plat ?rcv_buf ?delack_ns ~addr ~name () =
  let base_plat = Option.value plat ~default:Platform.decstation in
  let plat = Config.effective_platform base_plat config.Config.os in
  let host = Psd_mach.Host.create ~eng ~plat ~name in
  let netdev = Psd_mach.Netdev.create host segment ~mac:(fresh_mac ()) in
  let addr = Psd_ip.Addr.of_string addr in
  let routes = Psd_ip.Route.create () in
  Psd_ip.Route.add routes
    {
      Psd_ip.Route.net = Psd_ip.Addr.of_int (Psd_ip.Addr.to_int addr land 0xffffff00);
      mask = Psd_ip.Addr.of_string "255.255.255.0";
      hop = Psd_ip.Route.Direct;
      iface = 0;
    };
  let kctx = Psd_mach.Host.kernel_ctx host in
  (* the kernel's or the NIC's stack: authoritative ARP, netisr input *)
  let host_stack ctx =
    let arp_cache = Psd_arp.Cache.create eng () in
    Netstack.create ~ctx ~netdev ~addr ~routes ~arp:Netstack.Arp_authoritative
      ~arp_cache ~input:Netstack.Netisr_queue ?rcv_buf ?delack_ns ()
  in
  let os_server migrate =
    let server =
      Os_server.create ~host ~netdev ~migrate ~addr ~routes ?rcv_buf
        ?delack_ns ()
    in
    (Os server, [ Netstack.ctx (Os_server.stack server); kctx ])
  in
  let on_host stack crossing =
    On_host
      {
        Sockets.stack;
        tcp_ports = Portalloc.create ();
        udp_ports = Portalloc.create ();
        crossing;
      }
  in
  let base, ctxs =
    match config.Config.placement with
    | Config.In_kernel ->
      let stack = host_stack kctx in
      let (_ : Psd_mach.Netdev.filter_id) =
        Psd_mach.Netdev.attach netdev ~prio:100
          (Flat Psd_bpf.Filter.ip_all_flat) ~sink:(Netstack.sink stack)
      in
      let (_ : Psd_mach.Netdev.filter_id) =
        Psd_mach.Netdev.attach netdev ~prio:50 (Flat Psd_bpf.Filter.arp_flat)
          ~sink:(Netstack.sink stack)
      in
      (on_host stack Sockets.Trap, [ kctx ])
    | Config.Offload nic ->
      (* The seventh placement: the protocol stack's logic runs under a
         zero-cost platform (it executes but charges the host nothing);
         all datapath time comes from the NIC pipeline model installed on
         the netdev, plus explicit doorbell/completion/crossing charges at
         the socket boundary.  No packet filters: the device hands every
         frame straight to the on-NIC stack at pipeline completion. *)
      let pipe = Psd_mach.Nicpipe.create eng nic in
      let nic_ctx =
        Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu host)
          ~plat:(Platform.zero_cost plat) ~role:Ctx.Kernel_stack
      in
      let stack = host_stack nic_ctx in
      Psd_mach.Netdev.install_offload netdev pipe ~sink:(Netstack.sink stack);
      (on_host stack (Sockets.Ring { nic; pipe }), [ nic_ctx; kctx ])
    | Config.Server -> os_server false
    | Config.Library delivery ->
      if delivery = Config.Pf_shm_ipf then
        Psd_mach.Netdev.set_rx_mode netdev Psd_mach.Netdev.Rx_deferred;
      os_server true
  in
  {
    eng;
    host;
    config;
    netdev;
    addr;
    routes;
    base;
    app_stacks = [];
    ctxs;
    rcv_buf;
    delack_ns;
  }

(* Delivery channel for an application's protocol library. Under a
   NEWAPI configuration the channel's receive memory counts as loaned
   by the application (copy bookkeeping only; same costs). *)
let app_channel t ~newapi delivery =
  let plat = Psd_mach.Host.plat t.host in
  match delivery with
  | Config.Pf_ipc ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:Psd_mach.Pktchan.Ipc
      ~deliver_fixed:10_000
      ~deliver_per_byte:plat.Platform.kernel_mem_read_per_byte
  | Config.Pf_shm ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:(Psd_mach.Pktchan.Shm 64)
      ~deliver_fixed:plat.Platform.shm_deliver_fixed
      ~deliver_per_byte:plat.Platform.kernel_mem_read_per_byte
  | Config.Pf_shm_ipf ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:(Psd_mach.Pktchan.Shm 64)
      ~deliver_fixed:plat.Platform.shm_deliver_fixed
      ~deliver_per_byte:plat.Platform.device_read_per_byte

(* The protocol library of a Library-placement application: its own
   stack, its kernel delivery channel, and its metastate caches. *)
let library_stack t server ~ctx ~newapi delivery =
  let chan = app_channel t ~newapi delivery in
  (* metastate: a local ARP cache invalidated from the server's
     master; misses are proxy RPCs *)
  let arp_cache = Psd_arp.Cache.create t.eng () in
  Psd_arp.Cache.subscribe (Os_server.arp_master server) (fun ip ->
      Psd_arp.Cache.invalidate arp_cache ip);
  let arp_miss ip =
    Os_server.call server ~ctx ~phase:Phase.Ether_output (Session.Arp ip)
  in
  let stack =
    Netstack.create ~ctx ~netdev:t.netdev ~addr:t.addr ~routes:t.routes
      ~arp:(Netstack.Arp_cached arp_miss) ~arp_cache
      ~input:(Netstack.Chan chan) ?rcv_buf:t.rcv_buf ?delack_ns:t.delack_ns ()
  in
  t.app_stacks <- stack :: t.app_stacks;
  stack

let rec app t ~name =
  let task = Psd_mach.Task.create t.host ~name () in
  (* the application's own context: its side of every socket call, and
     its protocol library when sessions migrate into it *)
  let call_ctx =
    Ctx.create ~eng:t.eng ~cpu:(Psd_mach.Host.cpu t.host)
      ~plat:(Psd_mach.Host.plat t.host) ~role:Ctx.Library_stack
  in
  t.ctxs <- call_ctx :: t.ctxs;
  let newapi = t.config.Config.api = Config.Newapi in
  let home =
    match t.base with
    | On_host local -> Sockets.Local local
    | Os server ->
      let library =
        match t.config.Config.placement with
        | Config.Library d ->
          Some (library_stack t server ~ctx:call_ctx ~newapi d)
        | Config.Server | Config.In_kernel | Config.Offload _ -> None
      in
      let app_ref = Os_server.register_app server ~task ~library in
      Sockets.Proxied { server; app_id = Os_server.app_id app_ref; library }
  in
  Sockets.make_app ~host:t.host ~task ~call_ctx ~newapi
    ~forker:(fun ~name -> app t ~name)
    home

let add_route t ~net ~mask ~gateway =
  Psd_ip.Route.add t.routes
    {
      Psd_ip.Route.net = Psd_ip.Addr.of_string net;
      mask = Psd_ip.Addr.of_string mask;
      hop = Psd_ip.Route.Gateway (Psd_ip.Addr.of_string gateway);
      iface = 0;
    }

let host t = t.host
let addr t = t.addr
let netdev t = t.netdev
let server t = match t.base with Os s -> Some s | On_host _ -> None

let kernel_stack t =
  match t.base with On_host l -> Some l.Sockets.stack | Os _ -> None

let nic_pipe t = Psd_mach.Netdev.offload_pipe t.netdev

let stacks t =
  let base =
    match t.base with
    | On_host l -> l.Sockets.stack
    | Os srv -> Os_server.stack srv
  in
  base :: t.app_stacks

let stacks_tcp_stats t =
  List.map (fun s -> Psd_tcp.Tcp.stats (Netstack.tcp s)) (stacks t)

let stacks_ip_stats t =
  List.map (fun s -> Psd_ip.Ip.stats (Netstack.ip s)) (stacks t)

let reass_timed_out t =
  List.fold_left
    (fun acc s -> acc + Psd_ip.Ip.reass_timed_out (Netstack.ip s))
    0 (stacks t)

let set_breakdown t b = List.iter (fun ctx -> ctx.Ctx.breakdown <- b) t.ctxs
