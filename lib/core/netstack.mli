(** One complete protocol endpoint: Ethernet glue + ARP access + IP +
    TCP + UDP, executing in a given cost context.

    Exactly the same stack runs in three places — the kernel, the UX
    server task, or an application's protocol library; only the
    {!Psd_cost.Ctx.t}, the input path, and the ARP mode differ. This
    "one stack, three placements" property is the paper's reuse goal
    (Section 2.1). *)

type arp_mode =
  | Arp_authoritative
      (** owns the host's ARP resolver and answers queries on the wire
          (kernel and server stacks) *)
  | Arp_cached of (Psd_ip.Addr.t -> Psd_link.Macaddr.t option)
      (** consults a local cache, falling back to the supplied miss
          function (an RPC to the operating-system server); never sees
          ARP frames itself (library stacks) *)

type input_kind =
  | Netisr_queue
      (** kernel stack: frames arrive on the netisr queue with no
          delivery cost beyond the interrupt path *)
  | Chan of Psd_mach.Pktchan.t
      (** user-level stack: frames arrive through a kernel delivery
          channel *)

type t

val create :
  ctx:Psd_cost.Ctx.t ->
  netdev:Psd_mach.Netdev.t ->
  addr:Psd_ip.Addr.t ->
  routes:Psd_ip.Route.t ->
  arp:arp_mode ->
  arp_cache:Psd_arp.Cache.t ->
  input:input_kind ->
  ?rcv_buf:int ->
  ?delack_ns:int ->
  unit ->
  t
(** Builds the stack and serves its input queue. [routes] and
    [arp_cache] are supplied by the caller so that cached copies can be
    wired to the server's master tables (metastate, paper Section 3.3). *)

val ctx : t -> Psd_cost.Ctx.t
val ip : t -> Psd_ip.Ip.t
val tcp : t -> Psd_tcp.Tcp.t
val udp : t -> Psd_udp.Udp.t
val addr : t -> Psd_ip.Addr.t

val sink : t -> Psd_mach.Netdev.sink
(** Where the packet filter should deliver this stack's frames: the
    netisr queue ([Enqueue]) or the delivery channel, whose charged
    delivery may block ([May_block]). *)

val arp_resolver : t -> Psd_arp.Resolver.t option
(** The resolver, for authoritative stacks. *)

val icmp : t -> Psd_ip.Icmp.t option
(** The ICMP engine — present on authoritative (kernel/server) stacks,
    which handle the host's exceptional packets. *)

val frames_in : t -> int
