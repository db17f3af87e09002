(** The on-NIC processing model: a FlexTOE-style per-segment stage
    pipeline in virtual time.

    Each admitted segment flows through three stages — serialised
    pre-order (parse, flow demux), an N-wide protocol stage (TCP state
    machine, checksum) on identical processing elements, and serialised
    post-order (reorder point, completion, DMA).  Stage occupancy is
    tracked analytically: admission computes the segment's completion
    time from the stage clocks without spawning fibers, so two segments
    of one connection overlap in different stages and the whole model
    costs O(pes) per segment.

    Determinism: completion times depend only on admission order (the
    engine's event order); the protocol stage picks the earliest-free
    element with lowest-index tie-break, and the serialised post-order
    clock restores FIFO completion order (DESIGN.md section 16). *)

type t

type dir = Tx | Rx

val create : Psd_sim.Engine.t -> Psd_cost.Platform.nic -> t
(** @raise Invalid_argument if the profile has no processing element or
    no ring slot. *)

val profile : t -> Psd_cost.Platform.nic

val admit_deliver : t -> dir:dir -> len:int -> (unit -> unit) -> unit
(** [admit_deliver t ~dir ~len k] admits the segment and runs [k] at its
    completion time ([k] is an engine callback — it must not block). *)

val doorbell : t -> unit
(** Count one host doorbell write (the host-side cost is charged by the
    socket layer). *)

val completion : t -> unit
(** Count one host completion reap. *)

val segs : t -> int

val doorbells : t -> int

val completions : t -> int

val span_ns : t -> int
(** Virtual time between the first admission and the last completion. *)

val proto_occupancy_pct : t -> int
(** Busy fraction of the protocol-stage processing-element pool over
    {!span_ns}, in percent. *)

val counters : t -> (string * int) list
(** Counter list in [Stats.pp_counters] shape: segments offloaded per
    direction, doorbells, completions, per-stage stall and busy time,
    protocol-stage occupancy. *)
