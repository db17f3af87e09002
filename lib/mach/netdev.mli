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

val create : Host.t -> Psd_link.Segment.t -> mac:Psd_link.Macaddr.t -> t
(** On a duplex segment the NIC goes to the shard whose engine the host
    runs on (see {!Psd_link.Segment.attach_on}).
    @raise Invalid_argument if the host's engine is not one of the
    segment's. *)

val mac : t -> Psd_link.Macaddr.t

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

type matcher =
  | Flat of Psd_bpf.Filter.flat
      (** direct byte comparisons: {!Psd_bpf.Filter.flat_of_spec},
          {!Psd_bpf.Filter.arp_flat}, {!Psd_bpf.Filter.ip_all_flat} *)
  | Program of Psd_bpf.Vm.program  (** validated and compiled at attach *)

type sink =
  | Enqueue of (Bytes.t -> unit)
      (** never blocks (a mailbox send): runs inline as the last stage
          of the receive interrupt, with no fiber. An effect it performs
          (a sleep that cannot be bypassed, a suspend) is unhandled and
          fails the interrupt as [fiber netintr died: ...]. *)
  | May_block of (Bytes.t -> unit)
      (** may block (a charged delivery such as {!Pktchan.deliver},
          which then sends to the mailbox the receiving stack serves):
          runs under the fiber effect handler *)

val attach : t -> ?prio:int -> matcher -> sink:sink -> filter_id
(** Install a filter. Lower [prio] runs first (default 10), the newest
    first among equals; session filters should outrank wildcard ones.
    Attaching costs the number of filters that run before the new one,
    {!detach} the number before the removed one. The sink runs at the
    end of the receive interrupt, after demultiplexing costs are
    charged — it should enqueue, not process. Both sink forms draw the
    same events and end the interrupt at the same point; an [Enqueue]
    sink only skips the fiber. Both matcher forms report the
    interpreter's executed-instruction count, so the charged virtual
    time does not depend on which form runs.
    @raise Invalid_argument if a [Program] fails validation. *)

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

val tx_blocked : t -> int
(** Frames discarded by the egress limiter since creation. *)

val rx_frames : t -> int

val rx_unmatched : t -> int
(** Frames no filter accepted (counted, then dropped). *)

val filters : t -> int

val install_offload : t -> Nicpipe.t -> sink:sink -> unit
(** Put the device in smart-NIC offload mode: every received frame is
    admitted into the pipeline (no interrupt, no filter run) and
    handed to [sink] at pipeline completion; every transmitted frame is
    descriptor-posted (no trap, no host device-write cost) and reaches
    the wire when its tx pipeline completes.
    @raise Invalid_argument if [sink] is [May_block]: pipeline
    completion is a plain event, with no fiber to block in. *)

val offload_pipe : t -> Nicpipe.t option
