(** IPv4 addresses, represented as host-order unsigned 32-bit ints. *)

type t = int

val of_string : string -> t
(** Dotted-quad parse. @raise Invalid_argument on malformed input. *)

val to_int : t -> int

val of_int : int -> t

val any : t
(** 0.0.0.0 — the wildcard local address (INADDR_ANY). *)

val broadcast : t
(** 255.255.255.255 *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool

val in_subnet : t -> net:t -> mask:t -> bool

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by address, with integer hashing and equality. *)
