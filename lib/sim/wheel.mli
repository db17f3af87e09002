(** Hierarchical timing wheel (Varghese-style) with heap-identical
    ordering.

    Each entry carries a [(key, seq)] pair; {!pop_min} yields entries in
    strict [(key, seq)] order, matching the 4-ary event heap's FIFO
    tie-break exactly, so timers may live here instead of the heap
    without changing a simulation's event order. Insert, cancel and
    re-arm are O(1); popping amortises the cursor cascade.

    Restriction that keeps placement O(1): the wheel's internal time
    only advances to the key of the entry being popped (the current
    minimum). Consequently every [insert]/[reinsert] key must be
    [>= min_key] of the popped history — in the engine's use, keys are
    [now + dt] with [dt >= 0], which always satisfies this. *)

type 'a t

type 'a node
(** A timer entry; reusable across re-arms via {!reinsert}. *)

val create : dummy:'a -> unit -> 'a t
(** [dummy] is an inert value used to blank popped/cancelled slots so
    the wheel never retains a fired callback. *)

val insert : 'a t -> key:int -> seq:int -> 'a -> 'a node
(** Add an entry. [seq] must be strictly greater than every seq already
    inserted (the engine's global push counter provides this); equal
    keys pop in seq order. *)

val reinsert : 'a t -> 'a node -> key:int -> seq:int -> 'a -> unit
(** Re-arm a node that is not currently linked (never armed, fired, or
    cancelled). Allocation-free. *)

val cancel : 'a t -> 'a node -> unit
(** Unlink an entry. O(1), idempotent, no-op after firing. *)

val acquire : 'a t -> key:int -> seq:int -> 'a -> 'a node
(** Like {!insert}, but serves the node from the wheel's internal free
    list when one is available, so steady-state arm/fire churn is
    allocation-free. The node is owned by the caller until {!release}. *)

val release : 'a t -> 'a node -> unit
(** Unlink the node if still linked and return it to the free list. The
    caller must drop its reference afterwards: releasing a node twice,
    or using it after release, corrupts the pool. *)

val active : 'a node -> bool
(** Whether the node is currently linked (armed and not yet fired). *)

val min_key : 'a t -> int
(** Smallest key, or [max_int] when empty. Amortised O(1). *)

val min_seq : 'a t -> int
(** Seq of the minimum entry, or [max_int] when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum entry's value, advancing the wheel to
    its key. Raises [Invalid_argument] when empty. *)

val is_empty : 'a t -> bool
