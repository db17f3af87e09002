(** UDP (RFC 768).

    One [Udp.t] is the UDP instance of one protocol stack. UDP is
    stateless on the wire; a PCB only names a local endpoint, an optional
    connected peer, and a receive callback. Migrating a UDP session
    between stacks (paper Section 3.2) therefore amounts to rebinding the
    port in the destination stack — there are no sequence variables to
    carry. *)

type t
type pcb

type datagram = {
  src : Psd_ip.Addr.t;
  src_port : int;
  dst : Psd_ip.Addr.t;
  payload : Psd_mbuf.Mbuf.t;
}

type stats = {
  mutable udp_out : int;
  mutable udp_in : int;
  mutable udp_drop_checksum : int;
      (** plausibly-framed datagrams whose internet checksum failed *)
  mutable udp_drop_malformed : int;
      (** datagrams whose length field is shorter than the header or
          longer than the IP payload (framing damage, not payload
          damage) *)
  mutable udp_drop_no_port : int;
}

val create : ctx:Psd_cost.Ctx.t -> ip:Psd_ip.Ip.t -> unit -> t
(** Registers the instance as the IP protocol-17 handler of [ip]. *)

val bind :
  t ->
  port:int ->
  receive:(datagram -> unit) ->
  (pcb, [ `Port_in_use ]) result
(** Create a PCB on a local port. Port allocation policy (uniqueness
    across an entire host when stacks live in applications) belongs to
    the operating-system server, which calls this with a port it has
    reserved. *)

val connect : pcb -> Psd_ip.Addr.t -> int -> unit
(** Fix the remote endpoint: [send] may omit the destination and only
    datagrams from this peer are delivered. *)

val send :
  pcb ->
  ?dst:Psd_ip.Addr.t * int ->
  Psd_mbuf.Mbuf.t ->
  (unit, [ `No_destination | `No_route | `Too_big ]) result
(** Transmit one datagram. [dst] must be given for unconnected PCBs.
    Datagrams above the IP limit fail with [`Too_big]; larger-than-MTU
    payloads are fragmented by IP. *)

val close : t -> pcb -> unit

val set_unreachable_hook :
  t -> (src:Psd_ip.Addr.t -> original:Bytes.t -> unit) -> unit
(** Called when a datagram arrives for a port with no listener; the
    reconstructed offending IP packet is handed over so the caller (the
    stack's ICMP engine) can emit a port-unreachable. *)

val notify_unreachable : t -> dst:Psd_ip.Addr.t -> port:int -> unit
(** An ICMP port-unreachable arrived for traffic this instance sent to
    [dst]:[port]: record a soft error on every connected PCB naming that
    peer (BSD semantics — unconnected sockets are not told). *)

val take_error : pcb -> string option
(** Read and clear the PCB's pending soft error. *)

val stats : t -> stats
