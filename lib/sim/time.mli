(** Virtual-time unit helpers. The simulation's base unit is the
    nanosecond, stored in an OCaml [int]. *)

val us : int -> int
(** Microseconds to nanoseconds. *)

val ms : int -> int
val sec : int -> int

val to_ms : int -> float
