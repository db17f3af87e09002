(** Tasks: address spaces / processes on a host.

    Tasks matter to the protocol architecture for two reasons: sessions
    live in exactly one address space at a time, and the operating system
    must notice task death to abort connections the dead task was
    managing (paper Section 3.2, "Terminating session state"). [fork]
    duplicates the UNIX process abstraction so the fork/migration
    semantics can be exercised. *)

type t

val create : Host.t -> ?parent:t -> name:string -> unit -> t

val id : t -> int

val parent : t -> t option

val alive : t -> bool

val on_exit : t -> (unit -> unit) -> unit
(** Register a death hook (the OS server uses this to clean up network
    state). Hooks run in registration order when {!exit} is called. *)

val exit : t -> unit
(** Terminate the task; idempotent. *)

val fork : t -> name:string -> t
(** Create a child task. The caller (socket layer) is responsible for
    returning sessions to the operating system first, per the paper's
    fork protocol. @raise Invalid_argument if the task is dead. *)
