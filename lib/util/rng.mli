(** Deterministic pseudo-random numbers (splitmix64).

    The simulator must be reproducible run-to-run, so all randomness
    (initial TCP sequence numbers, ephemeral ports, payload patterns)
    flows through an explicitly seeded generator. *)

type t

val create : seed:int -> t

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val int32 : t -> int32
(** Uniform 32-bit value (e.g. TCP initial sequence numbers). *)

val float : t -> float
(** Uniform in [0, 1). *)

val split : t -> t
(** Derive an independent generator (for per-host streams). *)
