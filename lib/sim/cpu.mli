(** Single-CPU processor resource.

    Every simulated host has exactly one CPU (the paper's machines are
    uniprocessors), so protocol processing, interrupt handling and
    application copies contend for cycles — which is what makes receive-side
    processing the throughput bottleneck in several configurations.

    The resource is non-preemptive with three priority bands: when the CPU
    is released, the oldest waiter in the highest non-empty band runs next.
    Interrupt handlers therefore get the CPU ahead of kernel threads, which
    get it ahead of user threads, with at most one service-time of
    priority inversion — a good approximation of the real machines at the
    microsecond granularity we charge. *)

type prio = Interrupt | Kernel | User

type t

val create : Engine.t -> t

val consume : t -> prio:prio -> int -> unit
(** [consume cpu ~prio ns] acquires the CPU (waiting behind current owner
    and higher-priority waiters), holds it for [ns] nanoseconds of virtual
    time, and releases it. Zero-cost calls return immediately without
    acquiring. Must be called from a fiber. *)

val consume_k : t -> prio:prio -> int -> ('a -> unit) -> 'a -> unit
(** Continuation form of {!consume}, callable from a plain callback
    (see {!Engine.Task}): [consume_k cpu ~prio ns k x] runs [k x] once
    the CPU has been held for [ns] and released — inline when [ns] is 0,
    or when the CPU is free and the hold sleeps inline. It shares
    {!consume}'s band queues and direct hand-off, and allocates the same
    sequence numbers at the same points. *)

val busy_time : t -> int
(** Total nanoseconds the CPU has been held since creation (utilisation
    accounting for benchmarks). *)
