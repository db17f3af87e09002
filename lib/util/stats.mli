(** Online summary statistics for benchmark samples. *)

type t

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0..100], nearest-rank on the recorded
    samples; [nan] when empty. Samples are retained, so this is exact. *)

val pp_counters : Format.formatter -> (string * int) list -> unit
(** Render named event counters compactly, omitting the zero ones:
    ["rexmt=12 dup_acks=31"], or ["none"] when nothing fired. *)
