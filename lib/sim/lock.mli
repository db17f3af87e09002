(** Fiber mutex.

    Serialises a protocol stack the way splnet does in BSD: packet input,
    timers and user calls mutate shared protocol state under one lock.
    Fibers are cooperative, so the lock only matters across blocking
    points (CPU charges, IPC) — but those are exactly where interleaving
    would corrupt a TCB. *)

type t

val create : Engine.t -> t

val with_lock : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)
