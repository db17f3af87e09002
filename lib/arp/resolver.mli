(** ARP resolution state machine.

    Resolves IP next-hops to MAC addresses: answers requests for the
    host's own address, learns mappings from replies, retransmits
    outstanding queries, and releases packets queued behind a pending
    resolution. One resolver serves a host; in the decomposed
    configuration it runs in the operating-system server, which handles
    ARP as an "exceptional" packet class (paper Section 3.1). *)

type t

val create :
  eng:Psd_sim.Engine.t ->
  cache:Cache.t ->
  my_ip:Psd_ip.Addr.t ->
  my_mac:Psd_link.Macaddr.t ->
  send:(dst:Psd_link.Macaddr.t -> Packet.t -> unit) ->
  ?retries:int ->
  ?retry_interval_ns:int ->
  unit ->
  t
(** [send] transmits an ARP packet in an Ethernet frame. Defaults:
    3 retries, 1 s apart (BSD behaviour). *)

val resolve : t -> Psd_ip.Addr.t -> (Psd_link.Macaddr.t option -> unit) -> unit
(** Invoke the continuation with the mapping — immediately on a cache
    hit, after a query/reply exchange otherwise, with [None] if every
    retry times out. Concurrent resolutions of one address share a single
    query sequence. *)

val input : t -> Packet.t -> unit
(** Process a received ARP packet: reply to requests that target us,
    learn sender mappings, complete pending resolutions. *)

val input_bytes : t -> Bytes.t -> off:int -> len:int -> unit
(** [input_bytes t b ~off ~len] is {!input} of the packet decoded from
    [b] (malformed packets are ignored), with the same effects. A
    request for another address from a sender that is neither pending
    nor cached — the broadcast nearly every host drops — is discarded
    from the bytes, without decoding it. *)

val pending : t -> int
(** Addresses with an outstanding query. *)
