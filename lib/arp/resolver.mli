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
    request that {!try_input_bytes} finishes is not decoded. *)

val try_input_bytes : t -> Bytes.t -> off:int -> len:int -> bool
(** The requests {!input} answers with no packet: for another address,
    from a sender with no outstanding query, whose cached MAC (if any)
    is unchanged — the broadcast nearly every host hears. For one of
    those, [try_input_bytes t b ~off ~len] has {!input_bytes}'s effects
    (none for an unknown sender; a refreshed entry and a notification
    for a cached one) and returns [true]. Anything else it leaves
    untouched and returns [false]. Neither case decodes the packet. *)

val pending : t -> int
(** Addresses with an outstanding query. *)
