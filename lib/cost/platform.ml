type t = {
  name : string;
  app_call_overhead : int;
  proc_call : int;
  trap : int;
  ipc_msg : int;
  ipc_per_byte : int;
  wakeup_light : int;
  wakeup_kernel : int;
  wakeup_heavy : int;
  sync_kernel : int;
  sync_light : int;
  sync_heavy : int;
  copy_per_byte : int;
  copy_user_kernel_per_byte : int;
  kernel_mem_read_per_byte : int;
  device_read_per_byte : int;
  device_write_per_byte : int;
  checksum_per_byte : int;
  mbuf_alloc : int;
  mbuf_op : int;
  socket_layer : int;
  tcp_fixed : int;
  udp_fixed : int;
  ip_fixed : int;
  ether_fixed : int;
  route_lookup : int;
  arp_cache_hit : int;
  intr : int;
  drv_rx_fixed : int;
  drv_rx_peek : int;
  netisr : int;
  pf_base : int;
  pf_per_insn : int;
  shm_deliver_fixed : int;
  wire_bps : int;
  wire_ifg : int;
  wire_preamble_bytes : int;
}

(* Values in nanoseconds, calibrated against the paper's Table 4
   (DECstation 5000/200 column sums); see DESIGN.md. *)
let decstation =
  {
    name = "DECstation 5000/200";
    app_call_overhead = 40_000;
    proc_call = 2_000;
    trap = 23_000;
    ipc_msg = 75_000;
    ipc_per_byte = 90;
    wakeup_light = 40_000;
    wakeup_kernel = 65_000;
    wakeup_heavy = 230_000;
    sync_kernel = 1_500;
    sync_light = 9_000;
    sync_heavy = 70_000;
    copy_per_byte = 126;
    copy_user_kernel_per_byte = 70;
    kernel_mem_read_per_byte = 24;
    device_read_per_byte = 270;
    device_write_per_byte = 20;
    checksum_per_byte = 150;
    mbuf_alloc = 8_000;
    mbuf_op = 5_000;
    socket_layer = 9_000;
    tcp_fixed = 60_000;
    udp_fixed = 15_000;
    ip_fixed = 18_000;
    ether_fixed = 50_000;
    route_lookup = 5_000;
    arp_cache_hit = 3_000;
    intr = 30_000;
    drv_rx_fixed = 45_000;
    drv_rx_peek = 8_000;
    netisr = 40_000;
    pf_base = 20_000;
    pf_per_insn = 400;
    shm_deliver_fixed = 55_000;
    wire_bps = 10_000_000;
    wire_ifg = 9_600;
    wire_preamble_bytes = 8;
  }

(* The i486 at 33 MHz runs this integer-heavy code a little slower than the
   R3000 at 25 MHz; the dominant difference is the ISA-bus 3C503 NIC, whose
   programmed-I/O transfers cost over a microsecond per byte. *)
let gateway486 =
  let scale n = n * 13 / 10 in
  {
    name = "Gateway 486";
    app_call_overhead = scale 40_000;
    proc_call = scale 2_000;
    trap = scale 30_000;
    ipc_msg = 80_000;
    ipc_per_byte = 100;
    wakeup_light = scale 40_000;
    wakeup_kernel = scale 70_000;
    wakeup_heavy = 230_000;
    sync_kernel = scale 2_000;
    sync_light = scale 10_000;
    sync_heavy = 70_000;
    copy_per_byte = 110;
    copy_user_kernel_per_byte = 90;
    kernel_mem_read_per_byte = 40;
    device_read_per_byte = 1_150;
    device_write_per_byte = 1_050;
    checksum_per_byte = 190;
    mbuf_alloc = scale 8_000;
    mbuf_op = scale 5_000;
    socket_layer = scale 9_000;
    tcp_fixed = scale 60_000;
    udp_fixed = scale 15_000;
    ip_fixed = scale 18_000;
    ether_fixed = scale 50_000;
    route_lookup = scale 5_000;
    arp_cache_hit = scale 3_000;
    intr = scale 40_000;
    drv_rx_fixed = scale 50_000;
    drv_rx_peek = scale 8_000;
    netisr = scale 40_000;
    pf_base = scale 22_000;
    pf_per_insn = scale 400;
    shm_deliver_fixed = scale 55_000;
    wire_bps = 10_000_000;
    wire_ifg = 9_600;
    wire_preamble_bytes = 8;
  }

(* On-NIC processing profile: a smart NIC executing the TCP fast path as a
   FlexTOE-style per-segment stage pipeline.  The protocol stage runs on one
   of [pes] identical processing elements; pre-order (parse/demux) and
   post-order (reorder/DMA) stages are serialised so segment order on the
   wire and in the completion queue stays deterministic.  All costs ns. *)
type nic = {
  nic_name : string;
  pes : int;  (* protocol-stage processing elements *)
  pre_fixed : int;
  pre_per_byte : int;
  proto_fixed : int;
  proto_per_byte : int;
  post_fixed : int;
  post_per_byte : int;
  dma_per_byte : int;  (* NIC<->host memory DMA, charged in post-order *)
  doorbell : int;  (* host cost to ring the tx/rx doorbell *)
  completion : int;  (* host cost to reap one completion entry *)
  crossing : int;  (* per-descriptor host<->NIC queue crossing *)
  ring_slots : int;  (* bounded descriptor ring depth *)
}

(* Calibrated so one wimpy NIC core is compute-bound on bulk transfer
   (~2.2 ms/segment, well over the 1.23 ms wire time of a full frame)
   while four cores overlap protocol stages enough to become
   wire-limited — making the pipeline-parallel speedup measurable. *)
let nic_default =
  {
    nic_name = "psdNIC-4";
    pes = 4;
    pre_fixed = 12_000;
    pre_per_byte = 3;
    proto_fixed = 30_000;
    proto_per_byte = 1_500;
    post_fixed = 10_000;
    post_per_byte = 0;
    dma_per_byte = 80;
    doorbell = 6_000;
    completion = 9_000;
    crossing = 4_000;
    ring_slots = 64;
  }

let nic_serial = { nic_default with nic_name = "psdNIC-1"; pes = 1 }

(* A platform whose every host-CPU cost is zero but whose wire parameters
   survive.  The offload placement runs the regular protocol stack under
   this platform: the stack's logic executes (segmentation, reassembly,
   ACK generation, checksum verdicts) but charges nothing to the host CPU;
   all offload datapath time comes from the NIC pipeline model instead. *)
let zero_cost p =
  {
    p with
    name = p.name ^ " (on-NIC)";
    app_call_overhead = 0;
    proc_call = 0;
    trap = 0;
    ipc_msg = 0;
    ipc_per_byte = 0;
    wakeup_light = 0;
    wakeup_kernel = 0;
    wakeup_heavy = 0;
    sync_kernel = 0;
    sync_light = 0;
    sync_heavy = 0;
    copy_per_byte = 0;
    copy_user_kernel_per_byte = 0;
    kernel_mem_read_per_byte = 0;
    device_read_per_byte = 0;
    device_write_per_byte = 0;
    checksum_per_byte = 0;
    mbuf_alloc = 0;
    mbuf_op = 0;
    socket_layer = 0;
    tcp_fixed = 0;
    udp_fixed = 0;
    ip_fixed = 0;
    ether_fixed = 0;
    route_lookup = 0;
    arp_cache_hit = 0;
    intr = 0;
    drv_rx_fixed = 0;
    drv_rx_peek = 0;
    netisr = 0;
    pf_base = 0;
    pf_per_insn = 0;
    shm_deliver_fixed = 0;
  }

let frame_time p len =
  let bits = (len + p.wire_preamble_bytes) * 8 in
  let ns_per_bit = 1_000_000_000 / p.wire_bps in
  (bits * ns_per_bit) + p.wire_ifg
