(** IPv4 header encoding and decoding (RFC 791, no options). *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  ttl : int;
  ident : int;  (** fragment-group identifier *)
  dont_frag : bool;
  more_frags : bool;
  frag_off : int;  (** fragment offset in bytes (multiple of 8) *)
  total_len : int;  (** header + payload, bytes *)
}

val size : int
(** 20 bytes — options are out of scope (DESIGN.md section 6). *)

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

type error =
  | Too_short
  | Bad_version of int
  | Bad_header_length of int
  | Bad_checksum
  | Length_mismatch  (** total_len exceeds the received bytes *)

val pp_error : Format.formatter -> error -> unit

val encode_into : Bytes.t -> off:int -> t -> unit
(** Write the header, including its checksum, at [off]. The buffer must
    have at least {!size} bytes at [off]. *)

val decode :
  ?truncated:bool -> Bytes.t -> off:int -> len:int -> (t, error) result
(** Parse and verify a header from [len] available bytes at [off]
    ([len] may exceed [total_len]: Ethernet pads short frames). With
    [~truncated:true] the [total_len]-fits check is skipped — for the
    header-plus-eight-bytes excerpts embedded in ICMP errors. *)

val decrement_ttl : Bytes.t -> off:int -> unit
(** Forwarding hop: decrement the TTL of an encoded header in place and
    patch the stored checksum incrementally (RFC 1624), without
    re-summing the header.
    @raise Invalid_argument if the TTL is already zero. *)

val pseudo_checksum :
  src:Addr.t -> dst:Addr.t -> proto:int -> len:int -> Psd_util.Checksum.acc
(** Checksum accumulator seeded with the TCP/UDP pseudo-header. *)
