(** Bounded FIFO ring buffer.

    Models the fixed-size packet rings used by the shared-memory
    kernel/application channel: producers fail (drop) when the ring is
    full rather than blocking. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val length : 'a t -> int

val push : 'a t -> 'a -> bool
(** [push t x] appends [x]; [false] (and no change) when full. *)

val pop : 'a t -> 'a option
