(** Conservative domain-parallel simulation: N single-domain {!Engine}
    instances (one per host partition) advanced in barrier-synchronized
    rounds. Each round, every shard executes all local events below a
    conservative horizon derived from the other shards' published next
    event keys plus per-link lookahead (wire serialization +
    propagation delay), then exchanges cross-shard arrivals through
    per-pair FIFO buffers.

    The merged dispatch order is {e bit-identical} to running the same
    partitioned simulation without domains: arrivals are injected at
    round start sorted by (key, source shard, FIFO index) and draw
    their sequence numbers from the receiving engine at injection, so
    the (key, seq) total order every engine already maintains is a pure
    function of the inputs. [~domains:false] steps the identical round
    protocol sequentially — it is the reference the parallel mode is
    tested against. *)

type t

val create : ?seed:int -> n:int -> unit -> t
(** [create ~n ()] builds [n] engines with per-shard derived seeds.
    Shard [i]'s engine may only be touched (spawn/schedule/inspect) by
    code running on shard [i]. *)

val engine : t -> int -> Engine.t
(** The engine owned by a shard — use it to build that shard's hosts,
    wires and fibers before running. *)

val index_of : t -> Engine.t -> int option
(** [index_of t eng] is the shard that owns [eng], if any. *)

val set_lookahead : t -> src:int -> dst:int -> int -> unit
(** Declare a directed link: events generated on [src] for [dst] are
    promised to carry keys at least the lookahead (>= 1 ns) ahead of
    [src]'s clock. Called once per direction per wire; repeated calls
    keep the minimum. *)

val post : t -> src:int -> dst:int -> key:int -> (unit -> unit) -> unit
(** Deliver a callback to shard [dst] at absolute virtual time [key].
    [src = dst] schedules directly (sequence allocated now, exactly
    like a local schedule). Cross-shard posts must satisfy the declared
    lookahead: [key >= now(src) + lookahead(src, dst)].
    @raise Invalid_argument on a lookahead violation or unknown link. *)

val run_for : ?domains:bool -> t -> int -> unit
(** [run_for t dt] advances every shard [dt] past shard 0's clock
    (which equals every other shard's clock between runs).
    [~domains:true] (default) runs one OCaml domain per shard;
    [~domains:false] steps the same rounds on the calling domain.
    @raise Failure if any fiber failed (aggregated across shards). *)

val run : ?domains:bool -> t -> unit
(** Run until no shard has pending events. *)

val now : t -> int
(** Virtual time (shard 0's clock; all clocks agree between runs). *)

val rounds : t -> int
(** Cumulative conservative windows executed (diagnostics). *)

val posted : t -> int
(** Cumulative cross-shard deliveries (diagnostics). *)
