(** Deterministic wire fault injection.

    A fault process sits between a segment's serialisation and a NIC's
    receive handler and subjects every would-be delivery to an
    independent sequence of Bernoulli trials: drop, duplicate, reorder,
    corrupt, delay-jitter. All randomness comes from the single
    {!Psd_util.Rng.t} the process was created with, and draws are made
    in a fixed documented order, so a given seed replays the exact same
    fault schedule bit-for-bit — a failing lossy run is reproducible
    from its seed alone.

    Faults are evaluated per delivery (per receiving NIC), not per
    transmission: on a broadcast each receiver suffers its own
    independent fate, like independent receive-path noise on a shared
    medium.

    Corruption only touches frames carrying the IP ethertype, and only
    bytes past the 14-byte Ethernet header. The link CRC of a real
    Ethernet would discard virtually all corrupted frames at the NIC —
    modelled by {!policy.drop} — so the interesting corruptions are the
    ones that reach the protocols, and those must be caught by the IP
    header checksum and the TCP/UDP internet checksums. A single-byte
    XOR always perturbs a correct 16-bit one's-complement sum, so every
    injected corruption is detectable. Non-IP frames (ARP) carry no
    internet checksum and are left alone; use drops to stress the ARP
    retry path. *)

type policy = {
  drop : float;  (** P(delivery silently lost) *)
  duplicate : float;  (** P(frame delivered twice) *)
  reorder : float;
      (** P(delivery held back by [reorder_ns], letting later frames
          overtake it) *)
  corrupt : float;  (** P(one random payload byte XOR-flipped) *)
  jitter : float;  (** P(delivery delayed by U[1, jitter_max_ns]) *)
  reorder_ns : int;  (** hold-back applied to reordered deliveries *)
  jitter_max_ns : int;  (** upper bound of the jitter delay *)
}

val none : policy
(** All probabilities zero: a no-op process that never draws from its
    RNG, so attaching it cannot perturb anything. *)

val drop_only : float -> policy
(** Uniform loss at the given rate, nothing else. *)

val chaos : float -> policy
(** Drop, duplicate, reorder and corrupt each at the given rate, with
    default reorder/jitter magnitudes. *)

val is_null : policy -> bool
(** True when every probability is zero (the process cannot act). *)

type stats = {
  mutable frames : int;  (** deliveries evaluated *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable jittered : int;
}

type t

val create : rng:Psd_util.Rng.t -> policy -> t
(** The caller supplies the RNG; derive it from the simulation seed
    (e.g. [Rng.split (Engine.rng eng)] or [Rng.create ~seed]) to make
    the fault schedule part of the deterministic replay. *)

val stats : t -> stats

val injected : stats -> int
(** Total fault events ([dropped + duplicated + reordered + corrupted +
    jittered]). *)

val apply : t -> Bytes.t -> (int * Bytes.t) list
(** Decide the fate of one delivery. Returns the list of
    [(extra_delay_ns, frame)] deliveries the receiver should see — empty
    when dropped, two entries when duplicated. The argument must be the
    receiver's private copy: corruption mutates it in place (extra
    duplicate copies are freshly allocated). A zero extra delay means
    "deliver synchronously, exactly as a fault-free wire would". *)
