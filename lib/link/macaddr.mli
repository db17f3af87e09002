(** 48-bit Ethernet MAC addresses. *)

type t

val of_string : string -> t
(** From six raw bytes. @raise Invalid_argument otherwise. *)

val of_host_id : int -> t
(** A locally-administered unicast address derived from a small host
    number — how the simulator assigns NIC addresses. *)

val broadcast : t

val equal : t -> t -> bool

val write : t -> Bytes.t -> int -> unit
(** Encode the six bytes at an offset. *)

val read : Bytes.t -> int -> t

val equal_bytes : t -> Bytes.t -> int -> bool
(** [equal_bytes t b off] is [equal t (read b off)], without building
    the string. @raise Invalid_argument if [off + 6] exceeds [b]. *)

val pp : Format.formatter -> t -> unit
(** [aa:bb:cc:dd:ee:ff] notation. *)

val to_string : t -> string
(** The six raw bytes. *)
