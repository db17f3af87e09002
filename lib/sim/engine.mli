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
    exception escaping [f] is recorded under [name] (see {!failures})
    and terminates only that fiber. Every fiber runs under the one
    effect handler the engine builds at {!create}. *)

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
(** Continuation form of {!sleep} once {!sleep_inline} has refused the
    bypass, callable from a plain callback: [sleep_k t dt k] runs [k]
    once [dt] nanoseconds have passed, through the same two-step
    schedule as a fiber's sleep, drawing the same sequence numbers at
    the same points. It does not try the bypass again, so a caller
    tries {!sleep_inline} first:
    [if sleep_inline t dt then k () else sleep_k t dt k]. *)

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
  (** [stage t k x] runs [k x]; an exception it raises is recorded
      under the task's name as its failure (see {!failures}) and ends
      the task. Run every continuation of a task through it. *)

  val tail : t -> ('a -> unit) -> 'a -> unit
  (** [tail t k x] runs the task's last stage [k x] under the task's
      fiber effect handler, which serves the effects a {!spawn}ed fiber
      may perform, so it may block. The task ends when [k x] returns,
      or fails with its exception. *)

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

type timer
(** A re-armable timer slot backed by the engine's hierarchical timing
    wheel, the shape used for protocol timers (retransmit, delayed ACK,
    2MSL...). Arm, cancel and re-arm are O(1), cancellation frees the
    entry immediately, and wheel nodes are pooled on a per-engine free
    list: firing or cancelling returns the node (and drops the
    callback), so an idle timer slot is two words and steady-state
    arm/fire churn does not allocate. Wheel entries carry the same
    (time, sequence) pair a heap push would have been given, so they
    interleave with {!schedule}d events in one order.

    A one-shot deadline whose owner may lose interest (the ARP retry,
    the IP reassembly timeout, [Cond.wait_timeout]) is a {!schedule}
    whose callback checks its owner's state when it fires. That entry
    stays in the heap until its deadline and refuses every sleep bypass
    ({!sleep_inline}) that would reach past it, which is observable:
    moving those callers to a [timer], which leaves the queue when
    cancelled, took the benchmark's farm op from 984,984 to 984,738
    events. *)

val timer : unit -> timer
(** A fresh, unarmed timer slot. *)

val timer_arm : t -> timer -> int -> (unit -> unit) -> unit
(** [timer_arm t tm dt f] fires [f] once, [dt] nanoseconds from now
    ([f] must not block; spawn a fiber for blocking work). If [tm] is
    already armed it is rescheduled: the old deadline is dropped and
    the new one draws a fresh sequence number. *)

val timer_cancel : t -> timer -> unit
(** Disarm; idempotent, no-op after firing. *)

val run : t -> unit
(** Dispatch events until none remain.
    @raise Failure if any fiber raised, naming the first one as
    [fiber <name> died: <exception>] (see {!raise_failures}). *)

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

val failures : t -> (string * exn) list
(** Fibers and tasks that raised, oldest first: each one's name (["?"]
    for an unnamed {!spawn}) with its exception. *)

val raise_failures : string -> (string * exn) list -> unit
(** [raise_failures who fs] does nothing when [fs] is empty, and
    otherwise raises [Failure "<who>: <n> fiber failure(s); first:
    fiber <name> died: <exception>"] for the first of [fs]. The one
    failure report of {!run} and the shard layer. *)

val events_scheduled : t -> int
(** Total events pushed onto the queue since creation — the simulator's
    work metric (diagnostics and wall-clock tuning). *)
