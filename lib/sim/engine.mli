(** Discrete-event simulation engine.

    Simulated concurrency is expressed as {e fibers}: lightweight cooperative
    threads built on OCaml effect handlers. A fiber runs until it blocks
    ([sleep], [suspend], or a higher-level primitive such as
    {!Cond.wait} or {!Cpu.consume}); the engine then dispatches the next
    pending event in virtual-time order. Virtual time only advances between
    events, never during OCaml execution, so simulated latencies are exact
    and runs are deterministic for a given seed.

    All times are integer {e nanoseconds} of virtual time. *)

type t

type cancel = unit -> unit
(** Cancels a pending timer; idempotent, and a no-op after firing. *)

val create : ?seed:int -> unit -> t
(** A fresh simulation world at time 0. [seed] (default 42) drives
    {!rng} and all derived generators. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Psd_util.Rng.t
(** The engine's root deterministic random stream. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] creates a fiber executing [f], scheduled at the current
    virtual time. May be called from inside or outside a fiber. An
    exception escaping [f] is recorded (see {!failures}) and terminates
    only that fiber. *)

val sleep : t -> int -> unit
(** Block the calling fiber for the given number of nanoseconds.
    Must be called from within a fiber. *)

val sleep_inline : t -> int -> bool
(** The bypass of {!sleep} on its own: when no queued event can fire at
    or before [now t + dt] (and the run horizon does not cut the sleep
    short), advance the clock by [dt] and return [true]; otherwise
    change nothing and return [false]. Sleeping inline is then
    observationally identical to the two-step schedule. *)

val sleep_k : t -> int -> (unit -> unit) -> unit
(** Continuation form of {!sleep}, callable from a plain callback:
    [sleep_k t dt k] runs [k] once [dt] nanoseconds have passed —
    inline, at once, when {!sleep_inline} applies, and otherwise through
    the same two-step schedule as a fiber's sleep. Either way it
    allocates the same sequence numbers at the same points. *)

(** Fiber-less tasks: a chain of plain callbacks threaded through
    {!sleep_k} and {!Cpu.consume_k}, for hot paths whose early stages
    never block. A task counts in {!alive} and reports failures exactly
    like a fiber, and it draws the same sequence numbers as the fiber
    it replaces. *)
module Task : sig
  type engine := t

  type t
  (** A named kind of task, with the fiber effect handler its tails run
      under, built once. *)

  val create : engine -> name:string -> t

  val start : t -> ('a -> unit) -> 'a -> unit
  (** [start t k x] starts a task: counted alive, with [k x] scheduled
      at the current virtual time like a {!spawn} body (one event) and
      run as a {!stage}. The chain must end with {!tail} or
      {!finish}. *)

  val wake : t -> (unit -> unit) -> unit
  (** [wake t run] starts a task from a closure the caller built once,
      for a task that ends and restarts many times (a parked consumer,
      see {!Mailbox.serve}): counted alive, with [run] scheduled at the
      current virtual time like {!start}, and no allocation beyond the
      event. [run] must end the task through {!tail} or {!finish}, and
      run any other stage through {!stage}. *)

  val stage : t -> ('a -> unit) -> 'a -> unit
  (** [stage t k x] runs [k x]; an exception it raises is recorded as
      the task's failure (in {!failures}, and on the trace as
      [fiber <name> died: ...]) and ends the task. Run every
      continuation of a task through it. *)

  val tail : t -> ('a -> unit) -> 'a -> unit
  (** [tail t k x] runs the task's last stage [k x] under the fiber
      effect handler that {!spawn} uses, so it may block. The task ends
      when [k x] returns, or fails with its exception. *)

  val finish : t -> unit
  (** End a task that has no blocking last stage. *)
end

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling fiber and calls
    [register resume]. Invoking [resume] (exactly once, from any context)
    schedules the fiber to continue at the then-current virtual time.
    This is the primitive from which blocking abstractions are built. *)

val schedule : t -> int -> (unit -> unit) -> unit
(** [schedule t dt f] runs callback [f] (not a fiber; it must not block)
    [dt] nanoseconds from now. *)

val schedule_abs : t -> key:int -> (unit -> unit) -> unit
(** [schedule_abs t ~key f] runs callback [f] at absolute virtual time
    [key] (which must be [>= now t]). The sequence number is allocated
    at the moment of the call, exactly as [schedule t (key - now t) f]
    would — this is the injection primitive {!Shard} uses to deliver
    cross-shard arrivals with single-engine dispatch order.
    @raise Invalid_argument if [key] is in the past. *)

val after : t -> int -> (unit -> unit) -> cancel
(** Like {!schedule} but cancellable — the shape used for protocol
    timers (retransmit, delayed ACK, 2MSL...).

    A cancelled [after] stays in the event heap as a no-op until its
    deadline, and while it is there it refuses every sleep bypass
    ({!sleep_inline}) that would reach past it. That is observable in
    event counts: moving the three callers (ARP retry, the IP
    reassembly timeout, [Cond.wait_timeout]) to {!timer} left every
    transcript identical but took the benchmark's farm op from 984,984
    to 984,738 events, and restoring only the ARP retry's heap-resident
    entry brought the count back. Replacing [after] must keep the
    lingering entry or re-pin the farm fingerprint. *)

type timer
(** A re-armable timer slot backed by the engine's hierarchical timing
    wheel. Functionally equivalent to keeping an {!after} cancel token
    in a mutable slot, but arm/cancel/re-arm are O(1), cancellation
    frees the entry immediately (a cancelled {!after} lingers in the
    event queue as a no-op until its deadline), and wheel nodes are
    pooled on a per-engine free list: firing or cancelling returns the
    node (and drops the callback), so an idle timer slot is two words
    and steady-state arm/fire churn does not allocate. Dispatch order
    is identical either way: wheel entries carry the same
    (time, sequence) pair a heap push would have been given. *)

val timer : unit -> timer
(** A fresh, unarmed timer slot. *)

val timer_arm : t -> timer -> int -> (unit -> unit) -> unit
(** [timer_arm t tm dt f] fires [f] once, [dt] nanoseconds from now
    ([f] must not block; spawn a fiber for blocking work). If [tm] is
    already armed it is rescheduled — equivalent to cancelling the old
    {!after} and creating a new one. *)

val timer_cancel : t -> timer -> unit
(** Disarm; idempotent, no-op after firing. *)

val run : t -> unit
(** Dispatch events until none remain.
    @raise Failure if any fiber raised; the first exception's message is
    included. *)

val run_until : t -> int -> unit
(** Dispatch events with timestamps [<=] the given absolute time, then
    set the clock to that time. *)

val run_for : t -> int -> unit
(** [run_for t dt] = [run_until t (now t + dt)]. *)

val next_key : t -> int
(** Virtual time of the earliest pending event across the engine's
    three queues (zero-delay lane, heap and timer wheel), or [max_int]
    when the engine is idle. This is the
    quantity the shard layer publishes to compute conservative
    horizons. *)

val run_below : t -> int -> unit
(** [run_below t bound] dispatches every pending event with
    key [< bound] — one conservative window of a sharded run. Unlike
    {!run_until} the clock is left at the last dispatched event rather
    than advanced to the bound, and fiber failures are accumulated
    (see {!failures}) rather than raised; the shard layer aggregates
    them when the whole run completes. *)

val advance_to : t -> int -> unit
(** Force the clock forward to the given absolute time if it is ahead
    of [now] (used by the shard layer at the end of a run; events must
    not be pending below that time). *)

val alive : t -> int
(** Number of fibers and tasks started but not yet finished. After
    {!run} returns, a non-zero value means fibers are blocked forever
    (deadlock). *)

val failures : t -> exn list
(** Exceptions raised by fibers, oldest first. *)

val set_trace : t -> (time:int -> string -> unit) option -> unit
(** Install a sink that hears each fiber death, with the fiber's name
    (diagnostics). *)

val events_scheduled : t -> int
(** Total events pushed onto the queue since creation — the simulator's
    work metric (diagnostics and wall-clock tuning). *)
