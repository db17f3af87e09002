(** Ethernet II frame header encoding. *)

val header_size : int
(** 14 bytes: destination, source, ethertype. *)

val min_frame : int
(** Minimum transmitted frame size (60 bytes before FCS); shorter frames
    are padded on the wire. *)

val max_frame : int
(** Header plus the 1500-byte MTU. *)

val ethertype_ip : int
val ethertype_arp : int

val set_header :
  Bytes.t -> off:int -> dst:Macaddr.t -> src:Macaddr.t -> ethertype:int -> unit

val dst : Bytes.t -> Macaddr.t
(** Fields of a frame laid out from offset 0. *)

val src : Bytes.t -> Macaddr.t

val ethertype : Bytes.t -> int

val is_valid : Bytes.t -> bool
(** Frame is at least header-sized. *)
