(** The paper's throughput microbenchmark: memory-to-memory TCP transfer
    of a fixed volume between two hosts (16 MB in the paper). *)

type recovery = {
  rexmt : int;  (** timer retransmissions, both hosts *)
  fast_rexmt : int;  (** fast retransmits (3 dup acks), both hosts *)
  dup_acks_in : int;
  ooo_segs : int;  (** segments queued out of order by the receiver *)
  drop_checksum : int;  (** TCP segments dropped for a bad checksum *)
  drop_malformed : int;  (** TCP segments dropped for broken framing *)
  reass_timed_out : int;  (** IP fragment datagrams that timed out *)
  injected : int;  (** wire faults injected (0 when no policy given) *)
  predict_hit : int;
      (** synchronized-state segments matching the TCP header-prediction
          predicate, both hosts (see {!Psd_tcp.Tcp.stats}; a classifier,
          not a separate path, and not printed by {!pp_recovery}, whose
          printout is a recorded baseline) *)
  predict_miss : int;  (** synchronized-state segments that do not match *)
}
(** How the transfer recovered from injected wire faults, summed over
    both hosts' stacks. All-zero (except possibly [dup_acks_in]) on a
    clean wire. *)

val pp_recovery : Format.formatter -> recovery -> unit

type result = {
  config : Psd_cost.Config.t;
  bytes : int;
  elapsed_ns : int;
  kb_per_sec : float;
  rcv_buf : int;
  segs_out : int;  (** sender data segments *)
  rexmt : int;
  wire_utilization : float;  (** fraction of elapsed time the wire was busy *)
  recovery : recovery;
}

val run :
  ?machine:Paper.machine ->
  ?mb:int ->
  ?rcv_buf:int ->
  ?delack_ns:int ->
  ?seed:int ->
  ?fault:Psd_link.Fault.policy ->
  ?probe:(sender:Psd_core.System.t -> receiver:Psd_core.System.t -> unit) ->
  ?wire:Wire.t ->
  Psd_cost.Config.t ->
  result
(** Build a fresh two-host simulation in the given configuration and
    transfer [mb] megabytes (default 16). [rcv_buf] defaults to the
    paper's per-configuration best (Table 2). [fault] installs a
    wire-level fault-injection policy (both directions suffer); the
    payload is patterned and verified end to end, so [run] raises if
    recovery ever delivers wrong bytes. A null policy (or none) leaves
    the run bit-identical to the seed. [probe] runs after the
    transfer completes, with both hosts still live — the offload bench
    reads {!Psd_core.System.nic_pipe} counters through it.

    [wire] (default {!Wire.Shared}, the paper's wire) joins the hosts.
    On a {!Wire.Duplex} wire the sender lives on shard 0 and the
    receiver on shard 1 (both on shard 0 with one shard), and
    [wire_utilization] reports the data direction only: the sender
    NIC's serialisation time. *)

val verify_loan : label:string -> Psd_mbuf.Mbuf.t -> stream_off:int -> unit
(** Check a loaned receive view in place against the patterned stream
    (byte [i] of the stream is [i mod 256]), its first byte being stream
    byte [stream_off]. Raises [Failure] naming the first corrupt stream
    byte and its value, with [label] in the message. *)

val pp : Format.formatter -> result -> unit
