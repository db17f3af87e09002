(** Imperative binary min-heap keyed by [int].

    Backbone of the simulator's event queue. Ties are broken by insertion
    order so that events scheduled for the same instant fire FIFO, which
    keeps simulations deterministic. A push with the key of the push
    before joins that push's run in O(1) instead of sifting; pop order
    is the same (key, seq) order either way. Steady-state pushes and
    pops allocate nothing. *)

type 'a t

val create : filler:'a -> 'a t
(** [filler] fills every slot no entry occupies: a popped value is
    overwritten with it, so the heap never keeps a dead value (and all
    it captures) reachable. *)

val push_seq : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert [value] under [key] with a caller-supplied tie-break sequence
    number. [seq] must be non-negative and strictly greater than every
    seq currently in the heap; the caller owns the counter, so several
    queues can share it and (key, seq) totally orders entries across
    all of them. *)

(** [min_key h] is the smallest key, or [max_int] when empty. *)
val min_key : 'a t -> int

val min_seq : 'a t -> int
(** Tie-break seq of the minimum entry, or [max_int] when empty. *)

(** [pop_min h] removes and returns the minimum entry's value without
    allocating. Raises [Invalid_argument] on an empty heap; pair with
    {!min_key} or {!is_empty}. *)
val pop_min : 'a t -> 'a

val size : 'a t -> int
(** Number of entries. *)

val is_empty : 'a t -> bool
