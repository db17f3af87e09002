(** A shared 10 Mb/s Ethernet segment.

    Frames are serialised FIFO at the configured bit rate with a preamble
    and inter-frame gap per frame; a frame is delivered to the NICs whose
    address matches (or that are promiscuous) when its last bit arrives.
    Collisions are not modelled — the paper's measurements are taken on a
    private two-host network where the medium is effectively
    collision-free (DESIGN.md section 6). *)

type t

type nic

val create : Psd_sim.Engine.t -> ?bps:int -> unit -> t
(** Default 10 Mb/s. Every frame pays the standard 9.6 µs inter-frame
    gap. *)

val create_duplex :
  Psd_sim.Shard.t -> ?bps:int -> ?prop_ns:int -> unit -> t
(** A full-duplex point-to-multipoint wire whose NICs may live on
    different shards of the given {!Psd_sim.Shard.t}: each NIC
    serialises its own transmissions (no shared medium contention
    state), each receiver gets its own delivery event on its own
    engine, and attaching NICs on two different shards registers the
    wire's minimum frame latency (+ [prop_ns] propagation, default 0)
    as the conservative lookahead between them. Use [n = 1] shards for
    a single-domain duplex baseline — the virtual-time transcript is
    identical for every shard count. Duplex segments take per-NIC fault
    processes only ({!set_fault} rejects a policy). *)

val duplex : t -> bool

val min_latency : t -> int
(** Smallest possible transmit-to-arrival delta on this segment (ns):
    minimum-frame serialisation plus propagation — the lookahead a
    duplex wire contributes between shards. *)

val attach : t -> mac:Macaddr.t -> nic
(** Attach a NIC with the given address (on shard 0 if duplex). *)

val attach_on : t -> shard:int -> mac:Macaddr.t -> nic
(** Attach a NIC owned by the given shard of a duplex segment; its
    receive handler and delivery events run on that shard's engine.
    On a classic segment only [~shard:0] is accepted. *)

val mac : nic -> Macaddr.t

val set_rx : nic -> (Bytes.t -> unit) -> unit
(** Install the receive handler (the host's device-interrupt entry).
    The handler receives the padded on-wire frame. *)

val set_promiscuous : nic -> bool -> unit

val set_fault : t -> Fault.t option -> unit
(** Install (or clear) a fault process for every delivery on this
    segment. With [None] — the default — delivery is byte-perfect and
    event-for-event identical to a segment that never had a fault
    process, so fault-free runs replay bit-identically. *)

val set_nic_fault : nic -> Fault.t option -> unit
(** Per-NIC fault process; when set it overrides the segment-wide one
    for deliveries to this NIC (it is not composed with it). *)

val fault : t -> Fault.t option

val nic_fault : nic -> Fault.t option

val transmit : nic -> Bytes.t -> unit
(** Queue a frame for transmission. Undersized frames are padded to the
    Ethernet minimum; frames above the MTU raise [Invalid_argument].
    Transmission is asynchronous: the call returns immediately and
    delivery happens when serialisation completes. *)

val frame_time : t -> int -> int
(** Wire occupancy (ns) of a frame of the given length on this segment,
    including preamble, padding and inter-frame gap. *)

val frames_sent : t -> int

val bytes_sent : t -> int

val busy_ns : t -> int
(** Cumulative wire-busy time, for utilisation reporting. On a duplex
    segment this sums over NICs — read it only when no other domain is
    running (between sharded runs). *)

val nic_busy_ns : nic -> int
(** Cumulative busy time of the medium this NIC transmits on: on a
    duplex segment the NIC's own transmit time — safe to read from the
    owning shard while other shards run — and on a classic segment the
    shared medium's, both directions, as {!busy_ns}. *)
