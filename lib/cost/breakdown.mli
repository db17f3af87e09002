(** Accumulates CPU time per {!Phase.t} for the Table 4 experiment. *)

type t

val create : unit -> t

val add : t -> Phase.t -> int -> unit
(** Attribute [ns] of work to a phase. *)

val total : t -> Phase.t -> int
