(** Assembles a simulated host in any of the paper's configurations.

    A [System.t] is one machine on the Ethernet segment: its kernel
    (network device, packet filter), and — depending on the
    configuration — an in-kernel protocol stack, or an operating-system
    server whose sessions either stay put (Server placement) or migrate
    into application protocol libraries (Library placement, the paper's
    architecture, with the IPC / SHM / SHM-IPF delivery variants). *)

type t

val create :
  eng:Psd_sim.Engine.t ->
  segment:Psd_link.Segment.t ->
  config:Psd_cost.Config.t ->
  ?plat:Psd_cost.Platform.t ->
  ?rcv_buf:int ->
  ?delack_ns:int ->
  addr:string ->
  name:string ->
  unit ->
  t
(** [plat] defaults to the DECstation 5000/200 (adjusted by the
    configuration's OS profile). A direct route for the address's /24 is
    installed.

    On a duplex segment the host's NIC goes to the shard that owns
    [eng], so a domain-parallel run builds each host on its shard's
    engine (see {!Psd_sim.Shard}).
    @raise Invalid_argument if [eng] is not one of [segment]'s engines
    (see {!Psd_link.Segment.attach_on}). *)

val app : t -> name:string -> Sockets.app
(** Create an application process on this host. In the Library placement
    this builds the application's protocol library: its own stack, its
    kernel delivery channel, and its metastate caches, and registers its
    packet sink with the operating-system server. *)

val add_route : t -> net:string -> mask:string -> gateway:string -> unit
(** Install a gateway route in the host's (master) routing table — for
    topologies with a {!Router} between segments. Library-placement
    application stacks read the same table (cached metastate). *)

val host : t -> Psd_mach.Host.t
val addr : t -> Psd_ip.Addr.t
val netdev : t -> Psd_mach.Netdev.t
val server : t -> Os_server.t option
val kernel_stack : t -> Netstack.t option

val nic_pipe : t -> Psd_mach.Nicpipe.t option
(** The NIC pipeline model, present exactly under the Offload placement
    (pipeline occupancy/stall counters for the offload benchmark). *)

val stacks_tcp_stats : t -> Psd_tcp.Tcp.stats list
(** TCP statistics of every stack on the host (kernel or server plus any
    application libraries), for experiment reporting. *)

val stacks_ip_stats : t -> Psd_ip.Ip.stats list
(** IP statistics of every stack on the host, same order as
    {!stacks_tcp_stats}. *)

val reass_timed_out : t -> int
(** IP reassembly timeouts summed over every stack on the host. *)

val set_breakdown : t -> Psd_cost.Breakdown.t option -> unit
(** Attach a latency-breakdown accumulator to every context on this host
    (kernel machinery and all protocol stacks) — the Table 4 probe. *)
