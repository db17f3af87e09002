(** Control-plane scale workload: [conns] concurrent TCP connections
    from many client hosts, through a gateway router, to one server.

    Client hosts pack 250 per /24 segment and the farm grows segments
    as needed ([10.0.<k>.0/24] per segment, server on [10.1.0.0/24]),
    so the host count is bounded by the address plan — 250 segments of
    250 hosts, 62,500 hosts — not by a single subnet.

    Connections ramp up staggered, all hold open simultaneously at the
    sampling point (memory per connection via [Gc] live-word deltas),
    then close and drain through TIME_WAIT. Reported wall-clock
    excludes the GC walks taken for the memory samples. *)

type result = {
  conns : int;
  hosts : int; (* client hosts used *)
  segments : int; (* client /24 segments hung off the gateway *)
  connected : int;
  echoed : int; (* connections that completed an echo round-trip *)
  failed : int;
  peak_pcbs : int; (* live PCBs across all stacks at the peak *)
  bytes_per_conn : float; (* GC delta / conns: pcbs, sockets, fibers *)
  bytes_per_pcb : float; (* GC delta / peak_pcbs *)
  events : int; (* total events scheduled over the run *)
  virtual_ns : int;
  wall_s : float;
  events_per_wall_s : float;
  wall_ms_per_sim_s : float; (* wall cost of one simulated second *)
  rexmt_segs : int;
  injected : int; (* wire faults injected, when a policy is set *)
  final_pcbs : int; (* after close + drain; 0 means no PCB leak *)
  pool_fresh : int; (* PCB pool counters summed over every stack: *)
  pool_hits : int; (* fresh allocations, free-list reuses, ... *)
  pool_puts : int; (* ... returns to the free list, and records *)
  pool_free : int; (* parked on it at the end of the run. *)
}

type error =
  | Bad_conns of int (* conns must be >= 1 *)
  | Bad_per_host of int (* per_host must be >= 1 *)
  | Too_many_hosts of { hosts : int; limit : int }
      (* the conns/per_host combination needs more client hosts than
         the 250x250 address plan can number *)

val pp_error : Format.formatter -> error -> unit

val run :
  ?conns:int ->
  ?per_host:int ->
  ?spacing_ns:int ->
  ?hold_ns:int ->
  ?seed:int ->
  ?fault:Psd_link.Fault.policy ->
  ?wire:Wire.t ->
  unit ->
  (result, error) Stdlib.result
(** Every host runs Mach 2.5 in-kernel stacks on 100 Mb/s segments,
    each connection echoes a 64-byte ping, and the server's backlog is
    4096. Defaults: 1000 connections, 500 per client host, one connect
    per 2 ms, 5 s hold, seed 11, no faults, the classic {!Wire.Shared}
    wire. Returns [Error] without building any topology
    when the conns/per_host combination is invalid.

    On a {!Wire.Duplex} wire the server and router stay on shard 0 and
    client hosts spread over the other shards: whole segments per shard
    when there are enough segments, per-host round-robin otherwise. The
    connection outcome counters, PCB population and virtual time are
    then bit-identical for every shard count and either [domains]
    setting; [events] and the wall-clock fields legitimately vary
    between them. *)

val pp : Format.formatter -> result -> unit
