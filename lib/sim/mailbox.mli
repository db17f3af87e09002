(** Unbounded blocking FIFO between fibers.

    The building block for IPC message queues and protocol input queues:
    senders never block; receivers block until a message arrives. *)

type 'a t

val create : Engine.t -> 'a t

val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Block the calling fiber until a message is available. Messages are
    delivered in FIFO order; concurrent receivers are served oldest-first. *)

val recv_timeout : 'a t -> int -> 'a option
(** [None] when the timeout (nanoseconds) elapses first. *)

val length : 'a t -> int
(** Messages sent and not yet handled: queued, or taken by a {!serve}
    consumer in its current train. *)

val untaken : 'a t -> int
(** Messages sent and not yet taken: {!length} less the rest of a
    {!serve} consumer's current train. *)

val parked : 'a t -> bool
(** A {!serve} consumer is waiting for a message: the next {!send}
    wakes it. *)

val serve :
  'a t -> name:string -> ?nonblocking:('a -> bool) -> ('a -> unit) -> unit
(** [serve t ~name f] makes [f] the mailbox's one consumer: it runs on
    each message in FIFO order, starting now. [f] may block; messages
    sent meanwhile are handled in order before the consumer parks. The
    consumer takes messages a train at a time: everything queued when
    it wakes, and again each time it has handled the train it took.
    Parked, it is no fiber: it does not count in {!Engine.alive}, and a
    send wakes it as a task at delay 0, drawing the sequence number a
    [recv] loop's resume would, so event order and
    {!Engine.events_scheduled} equal those of a fiber spawned now that
    loops on {!recv}. An exception from [f] ends the consumer and is
    recorded as [fiber <name> died: ...]. A served mailbox takes no
    other receiver.

    [nonblocking x] (default: [false] for every message) is a first
    pass that runs on the wake event with no fiber. It either finishes
    [x] exactly as [f x] would, without blocking, and returns [true],
    or returns [false] with no effect, and then [f x] and every later
    message until the consumer parks run under the fiber handler. *)
