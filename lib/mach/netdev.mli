(** The kernel network interface: device driver, interrupt path, and the
    packet-filter demultiplexer.

    Receive path: NIC interrupt → driver reads the frame out of device
    memory (entirely, or just the headers when the integrated packet
    filter defers the body copy) → installed filters run in priority
    order → the first match's sink takes the frame. Send path: a
    low-latency trap copies the frame from the sender's address space
    into a wired kernel buffer and hands it to the device. *)

type t

type rx_mode =
  | Rx_full_copy  (** copy the whole frame out of the device at interrupt
                      time (standard driver) *)
  | Rx_deferred  (** integrated packet filter: peek at headers only;
                     whoever delivers the packet pays the single body
                     copy from device memory (Library-SHM-IPF) *)

type filter_id

val create :
  ?shard:int -> Host.t -> Psd_link.Segment.t -> mac:Psd_link.Macaddr.t -> t
(** [?shard] (default 0) places the NIC on that shard of a duplex
    segment (see {!Psd_link.Segment.attach_on}); the host must have
    been built on the same shard's engine. *)

val mac : t -> Psd_link.Macaddr.t

val host : t -> Host.t

val wire_busy_ns : t -> int
(** Cumulative busy time of the medium this device transmits on
    ({!Psd_link.Segment.nic_busy_ns}): its own NIC's serialisation time
    on a duplex segment, the whole shared medium's on a classic one.
    Safe to read from the owning shard. *)

val set_rx_mode : t -> rx_mode -> unit

val set_fault : t -> Psd_link.Fault.t option -> unit
(** Subject every frame delivered to this device to a fault process
    (drop/duplicate/reorder/corrupt/jitter) before the interrupt fires.
    Overrides any segment-wide fault process for this NIC. *)

val fault : t -> Psd_link.Fault.t option

val attach :
  t ->
  ?prio:int ->
  ?flat:Psd_bpf.Filter.flat ->
  prog:Psd_bpf.Vm.program ->
  sink:(Bytes.t -> unit) ->
  unit ->
  filter_id
(** Install a validated filter program. Lower [prio] runs first (default
    10); session-specific filters should outrank wildcard ones. The sink
    runs at the end of the receive interrupt, after demultiplexing costs
    are charged, under the fiber effect handler (so it may block) —
    it should enqueue, not process.

    Demultiplexing runs the cheapest engine that can decide the program:
    the [?flat] descriptor when the caller has one (a session spec's,
    or the ethertype test of {!Psd_bpf.Filter.arp} and
    {!Psd_bpf.Filter.ip_all}: direct byte comparisons), otherwise the
    program compiled to closures, with the interpreter as the final
    fallback. All rungs report the interpreter's executed-instruction
    count, so the charged virtual time does not depend on which engine
    ran. The caller is responsible for [flat] describing the same
    predicate as [prog].
    @raise Invalid_argument if the program fails validation. *)

val detach : t -> filter_id -> unit

val transmit : t -> ctx:Psd_cost.Ctx.t -> from_user:bool -> Bytes.t -> unit
(** Send a complete Ethernet frame. [from_user] adds the trap and the
    user→kernel copy (library and server placements). Device-write costs
    are charged to [ctx]; wire serialisation is handled by the segment.
    When egress filters are installed, frames none of them accept are
    silently dropped (counted in {!tx_blocked}). *)

val attach_egress : t -> prog:Psd_bpf.Vm.program -> unit -> filter_id
(** Install an outgoing-packet limiter (paper Section 3.4): with one or
    more egress filters present, only frames at least one accepts may
    leave. The check runs in the kernel, below the protocol library, so
    applications cannot spoof packets past it.
    @raise Invalid_argument if the program fails validation. *)

val detach_egress : t -> filter_id -> unit

val tx_blocked : t -> int
(** Frames discarded by the egress limiter since creation. *)

val rx_frames : t -> int

val rx_unmatched : t -> int
(** Frames no filter accepted (counted, then dropped). *)

val filters : t -> int

val install_offload : t -> Nicpipe.t -> sink:(Bytes.t -> unit) -> unit
(** Put the device in smart-NIC offload mode: every received frame is
    admitted into the pipeline (no interrupt, no filter run) and
    handed to [sink] at pipeline completion; every transmitted frame is
    descriptor-posted (no trap, no host device-write cost) and reaches
    the wire when its tx pipeline completes. *)

val offload_pipe : t -> Nicpipe.t option
