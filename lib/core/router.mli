(** A multi-interface IP router.

    The paper's testbed is a single private Ethernet, but its stacks keep
    full routing tables with gateway entries (metastate, Section 3.3);
    this module provides the box those entries point at, so that
    multi-segment topologies can be simulated: each interface owns a
    network device and an ARP identity, and IP packets are forwarded
    between segments with TTL decrement, header-checksum rewrite, and
    per-hop ARP resolution. Forwarding runs in the router's kernel
    context and charges routing costs per packet. *)

type t

val create :
  eng:Psd_sim.Engine.t ->
  name:string ->
  ifaces:(Psd_link.Segment.t * string) list ->
  unit ->
  t
(** [ifaces] pairs each attached segment with the router's address on it
    (e.g. [(seg1, "10.0.1.254"); (seg2, "10.0.2.254")]). A direct route
    for each interface's /24 is installed. The router answers ARP for
    its own addresses. It runs on the DECstation 5000/200 platform.
    On a duplex segment each interface NIC goes to the shard that owns
    [eng]. *)

val forwarded : t -> int
(** Packets forwarded between interfaces. *)

val dropped_ttl : t -> int
(** Packets discarded because their TTL expired here. *)
