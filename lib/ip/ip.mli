(** The IP layer of one protocol stack instance.

    A stack instance lives wherever the configuration places protocol code
    — kernel, server, or application library — and charges its CPU time
    through the {!Psd_cost.Ctx.t} it was created with. Transmission goes
    through a pluggable [transmit] hook (installed by the Ethernet/ARP
    glue); delivery goes to per-protocol handlers (UDP, TCP, ICMP). *)

type stats = {
  mutable ip_output : int;
  mutable ip_delivered : int;
  mutable ip_fragmented : int;  (** fragments produced *)
  mutable ip_reassembled : int;  (** datagrams completed from fragments *)
  mutable ip_dropped_header : int;
  mutable ip_dropped_proto : int;
  mutable ip_dropped_addr : int;
  mutable ip_no_route : int;
}

type t

type handler = hdr:Header.t -> Psd_mbuf.Mbuf.t -> unit
(** Receives the transport payload of a delivered datagram. *)

type transmit = next_hop:Addr.t -> iface:int -> Psd_mbuf.Mbuf.t -> unit
(** Receives a complete IP packet (header prepended) for encapsulation. *)

val create :
  ctx:Psd_cost.Ctx.t ->
  addr:Addr.t ->
  routes:Route.t ->
  unit ->
  t
(** A stack with the 1500-byte Ethernet MTU. *)

val addr : t -> Addr.t

val set_transmit : t -> transmit -> unit

val register : t -> proto:int -> handler -> unit

val output :
  t ->
  ?ttl:int ->
  ?dont_frag:bool ->
  proto:int ->
  dst:Addr.t ->
  Psd_mbuf.Mbuf.t ->
  (unit, [ `No_route | `Would_fragment | `Too_big ]) result
(** Route, fragment if necessary, and transmit a transport payload
    from the stack's address.
    Charges [ip_output] costs to the stack's context. *)

val input : t -> Bytes.t -> off:int -> len:int -> unit
(** Deliver a raw IP packet (as found in a received frame at [off]).
    Verifies the header, reassembles fragments, dispatches to the
    registered protocol handler. Charges [ipintr] costs. *)

val stats : t -> stats

val reass_timed_out : t -> int
(** Reassembly timeouts of this stack's fragment table. *)

