(** 32-bit modular TCP sequence-number arithmetic (RFC 793 section 3.3). *)

type t = int
(** Always in [0, 2^32). *)

val add : t -> int -> t

val sub : t -> int -> t

val diff : t -> t -> int
(** [diff a b] is the signed distance [a - b], correct when the true
    distance is within half the sequence space. *)

val lt : t -> t -> bool
(** [lt a b]: [a] is strictly before [b] in sequence space. *)

val leq : t -> t -> bool

val gt : t -> t -> bool

val geq : t -> t -> bool

val max : t -> t -> t

val in_window : t -> base:t -> size:int -> bool
(** [in_window x ~base ~size]: [base <= x < base + size] modulo 2^32. *)
