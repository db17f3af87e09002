(** Fiber mutex.

    Serialises a protocol stack the way splnet does in BSD: packet input,
    timers and user calls mutate shared protocol state under one lock.
    Fibers are cooperative, so the lock only matters across blocking
    points (CPU charges, IPC) — but those are exactly where interleaving
    would corrupt a TCB. *)

type t

val create : Engine.t -> t

val acquire : t -> unit
(** Block until the lock is free, then take it. Not reentrant. *)

val release : t -> unit
(** @raise Invalid_argument if the lock is not held. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

val wait : t -> Cond.t -> unit
(** Atomically release the lock, wait for a signal on the condition, and
    reacquire — the POSIX [pthread_cond_wait] shape. The caller must hold
    the lock and must re-check its predicate on return. *)
