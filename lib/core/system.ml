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
  fault : Psd_link.Fault.t option;
}

(* Atomic: systems may be built on several shards' engines (each shard
   builds its own hosts, but construction order across shards is not
   synchronized). Workloads that need identical MACs across partition
   choices build hosts in a fixed global order before running. *)
let mac_counter = Atomic.make 0

let fresh_mac () =
  Psd_link.Macaddr.of_host_id (Atomic.fetch_and_add mac_counter 1 + 1)

let create ~eng ~segment ?(shard = 0) ~config ?plat ?rcv_buf ?delack_ns ?fault
    ~addr ~name () =
  let base_plat = Option.value plat ~default:Platform.decstation in
  let plat = Config.effective_platform base_plat config.Config.os in
  let host = Psd_mach.Host.create ~eng ~plat ~name in
  let netdev =
    Psd_mach.Netdev.create ~shard host segment ~mac:(fresh_mac ())
  in
  (* A null policy installs nothing and draws nothing, so fault-free
     runs stay bit-identical whether or not the argument was passed. *)
  let fault =
    match fault with
    | Some policy when not (Psd_link.Fault.is_null policy) ->
      let f =
        Psd_link.Fault.create
          ~rng:(Psd_util.Rng.split (Psd_sim.Engine.rng eng))
          policy
      in
      Psd_mach.Netdev.set_fault netdev (Some f);
      Some f
    | _ -> None
  in
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
          ~flat:Psd_bpf.Filter.ip_all_flat ~prog:Psd_bpf.Filter.ip_all
          ~sink:(Netstack.sink stack) ()
      in
      let (_ : Psd_mach.Netdev.filter_id) =
        Psd_mach.Netdev.attach netdev ~prio:50 ~flat:Psd_bpf.Filter.arp_flat
          ~prog:Psd_bpf.Filter.arp
          ~sink:(Netstack.sink stack) ()
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
    fault;
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
  let rpc_port = Os_server.rpc_port server in
  let arp_miss ip =
    match
      Psd_mach.Ipc.call rpc_port ~ctx ~phase:Phase.Ether_output
        (Session.R_arp ip)
    with
    | Session.Rs_arp mac -> mac
    | _ -> None
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
  (* the server forwards ICMP soft errors for sessions that migrated
     into this application *)
  let err_fwd = ref (fun _ _ -> ()) in
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
      let sink =
        match library with Some stack -> Netstack.sink stack | None -> ignore
      in
      let app_ref =
        Os_server.register_app server ~task ~sink
          ~on_error:(fun sid msg -> !err_fwd sid msg) ()
      in
      Sockets.Proxied
        {
          port = Os_server.rpc_port server;
          app_id = Os_server.app_id app_ref;
          library;
        }
  in
  let a =
    Sockets.make_app ~host:t.host ~task ~call_ctx ~newapi
      ~forker:(fun ~name -> app t ~name)
      home
  in
  err_fwd := Sockets.deliver_soft_error a;
  a

let add_route t ~net ~mask ~gateway =
  Psd_ip.Route.add t.routes
    {
      Psd_ip.Route.net = Psd_ip.Addr.of_string net;
      mask = Psd_ip.Addr.of_string mask;
      hop = Psd_ip.Route.Gateway (Psd_ip.Addr.of_string gateway);
      iface = 0;
    }

let host t = t.host
let config t = t.config
let addr t = t.addr
let netdev t = t.netdev
let server t = match t.base with Os s -> Some s | On_host _ -> None

let kernel_stack t =
  match t.base with On_host l -> Some l.Sockets.stack | Os _ -> None

let nic_pipe t = Psd_mach.Netdev.offload_pipe t.netdev

let fault_stats t = Option.map Psd_link.Fault.stats t.fault

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
