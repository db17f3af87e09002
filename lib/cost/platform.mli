(** Hardware/OS primitive cost tables.

    Every cost the simulator charges is a composition of the primitives
    below. The values are {e calibrated}, not measured: they were fitted so
    that the per-layer path sums of our three protocol placements
    approximate the paper's Table 4 latency breakdown on the same
    platforms (see DESIGN.md section 2). All costs are in nanoseconds;
    per-byte costs are nanoseconds per byte. *)

type t = {
  name : string;
  app_call_overhead : int;
      (** benchmark-program work around each socket call (loop, stubs,
          timestamping) — present in the paper's measured round trips but
          not in its Table 4 rows, so charged under [Control] *)
  (* control transfer *)
  proc_call : int;  (** library procedure-call entry into the socket layer *)
  trap : int;  (** user/kernel boundary crossing, in and out *)
  ipc_msg : int;  (** one-way Mach IPC message, small payload *)
  ipc_per_byte : int;  (** marginal IPC cost per payload byte (two copies) *)
  (* scheduling *)
  wakeup_light : int;  (** wake a thread in the same address space *)
  wakeup_kernel : int;  (** kernel wakeup of a blocked user thread *)
  wakeup_heavy : int;  (** server wakeup through priority-level machinery *)
  (* synchronisation at protocol lock points (one raise/lower pair) *)
  sync_kernel : int;  (** in-kernel spl: interrupt masking, very cheap *)
  sync_light : int;  (** protocol library: plain user-level locks *)
  sync_heavy : int;  (** UX server: simulated hardware priority levels *)
  (* data movement, ns/byte *)
  copy_per_byte : int;  (** memory-to-memory copy within an address space *)
  copy_user_kernel_per_byte : int;  (** copyin/copyout across user/kernel *)
  kernel_mem_read_per_byte : int;  (** copy out of a wired kernel buffer *)
  device_read_per_byte : int;  (** copy from NIC device memory to host *)
  device_write_per_byte : int;  (** copy from host to NIC device memory *)
  checksum_per_byte : int;  (** Internet checksum over payload *)
  (* memory management *)
  mbuf_alloc : int;  (** allocate one mbuf (or cluster) *)
  mbuf_op : int;  (** constant-time chain operation: append, trim... *)
  (* fixed protocol-processing costs per packet (header work, PCB lookup) *)
  socket_layer : int;  (** socket-layer entry bookkeeping *)
  tcp_fixed : int;  (** TCP header construction / state processing *)
  udp_fixed : int;
  ip_fixed : int;
  ether_fixed : int;  (** encapsulation + driver transmit setup *)
  route_lookup : int;
  arp_cache_hit : int;
  (* receive-side kernel machinery *)
  intr : int;  (** interrupt entry/exit *)
  drv_rx_fixed : int;  (** driver work to accept a frame (descriptor ring,
                           buffer management) *)
  drv_rx_peek : int;  (** integrated filter: read just the headers out of
                          device memory, deferring the body copy *)
  netisr : int;  (** software-interrupt dispatch of the input queue *)
  pf_base : int;  (** packet-filter invocation overhead *)
  pf_per_insn : int;  (** per executed filter instruction *)
  shm_deliver_fixed : int;  (** hand a packet to a shared-memory ring:
                                mapping lookup plus condition signal *)
  (* wire *)
  wire_bps : int;  (** link bandwidth, bits/second *)
  wire_ifg : int;  (** inter-frame gap, ns *)
  wire_preamble_bytes : int;  (** preamble+SFD bytes serialised per frame *)
}

val decstation : t
(** DECstation 5000/200: 25 MHz MIPS R3000, Lance Ethernet (DMA). *)

val gateway486 : t
(** Gateway: 33 MHz i486, 3Com 3C503 on ISA — programmed I/O eight bits at
    a time, which makes device copies the throughput bottleneck. *)

type nic = {
  nic_name : string;
  pes : int;
      (** identical processing elements available to the protocol stage *)
  pre_fixed : int;  (** pre-order stage: parse headers, demux to flow *)
  pre_per_byte : int;
  proto_fixed : int;  (** protocol stage: TCP state machine, checksum *)
  proto_per_byte : int;
  post_fixed : int;  (** post-order stage: reorder point, completions *)
  post_per_byte : int;
  dma_per_byte : int;  (** NIC<->host memory DMA, charged in post-order *)
  doorbell : int;  (** host CPU cost to ring a doorbell *)
  completion : int;  (** host CPU cost to reap one completion entry *)
  crossing : int;  (** per-descriptor host<->NIC queue crossing *)
  ring_slots : int;  (** bounded descriptor ring depth *)
}
(** A smart NIC running the TCP fast path as a FlexTOE-style per-segment
    stage pipeline: serialised pre-order, [pes]-wide protocol stage,
    serialised post-order (see DESIGN.md section 16). *)

val nic_default : nic
(** Four processing elements; calibrated so a single PE is compute-bound
    on bulk transfer while four are wire-limited. *)

val nic_serial : nic
(** [nic_default] restricted to one processing element — the
    per-connection-serialisation baseline the pipeline must beat. *)

val zero_cost : t -> t
(** Zero every host-CPU cost, keep the wire parameters.  The platform the
    offloaded protocol stack runs under: its logic executes but charges
    nothing; the NIC pipeline model supplies the time instead. *)

val frame_time : t -> int -> int
(** [frame_time p len] is the wire occupancy in ns of a [len]-byte frame,
    including preamble and inter-frame gap. *)
