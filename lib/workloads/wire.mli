(** The wire a workload's hosts share, and the engine that drives them.
    Every workload runs on a {!Psd_sim.Shard.t}; this value picks how
    many shards it has and what kind of segment joins the hosts. *)

type t =
  | Shared
      (** The classic half-duplex segment, on a one-shard engine: every
          NIC's transmissions serialise on one shared medium. This is the
          wire the paper's tables were measured on. Wire faults are one
          process per segment, each RNG split off the engine's in
          segment order, so fault-free and faulty runs alike replay the
          seed's classic transcript. *)
  | Duplex of { shards : int; domains : bool }
      (** Full-duplex segments on a conservative [shards]-shard engine:
          each NIC serialises its own transmissions (a shared busy state
          cannot be split across domains), and a 1 ms propagation delay
          widens the lookahead window, which sets the barrier-round
          granularity. [domains] runs one OCaml domain per shard;
          [false] steps the same rounds sequentially. Differences from
          [Shared], deliberate and partition-independent:
          - wire faults are per-receiving-NIC processes on the workload's
            own hosts (not a router's), with RNG streams derived from the
            workload seed and the host index — never from an engine RNG,
            whose draw order would depend on the partition — so one seed
            fixes one fault schedule for every shard count;
          - {!Psd_link.Segment.nic_busy_ns} reads the sender NIC's own
            transmit time, which its shard can read without racing
            another domain, rather than the whole medium's.
          For any [shards] and either [domains] setting the workload's
          virtual-time results are bit-identical; the parallel
          differential suite enforces it. *)

val shards : t -> int

val segment : t -> Psd_sim.Shard.t -> ?bps:int -> unit -> Psd_link.Segment.t
(** A new segment of this kind, on the given engine. *)

val install_faults :
  t ->
  seed:int ->
  Psd_sim.Shard.t ->
  Psd_link.Fault.policy option ->
  segments:Psd_link.Segment.t list ->
  hosts:Psd_core.System.t list ->
  Psd_link.Fault.t list
(** Install a wire fault process for the policy, if one is given and not
    null: one per segment on a [Shared] wire, one per host NIC on a
    [Duplex] one. Returns the processes installed. *)

val injected : Psd_link.Fault.t list -> int
(** Faults injected so far, summed over the processes. *)

val run_for : t -> Psd_sim.Shard.t -> int -> unit
(** Advance the engine by a virtual-time span; only a [Duplex] wire with
    [domains] ever starts a second domain. *)
