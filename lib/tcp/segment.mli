(** TCP segment header encoding (RFC 793; MSS is the only option used). *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  flags : flags;
  window : int;
  mss : int option;  (** MSS option, legal only on SYN segments *)
}

val base_size : int
(** 20 bytes without options. *)

val encode :
  t ->
  src:Psd_ip.Addr.t ->
  dst:Psd_ip.Addr.t ->
  payload:Psd_mbuf.Mbuf.t ->
  Psd_mbuf.Mbuf.t
(** Prepend the TCP header (with a correct checksum over the pseudo
    header, header and payload) onto [payload] and return the chain. *)

type decode_error =
  | Truncated  (** shorter than the fixed header *)
  | Bad_offset  (** data offset below 20 or past the segment end *)
  | Bad_checksum

val pp_decode_error : Format.formatter -> decode_error -> unit

val decode :
  ?off:int ->
  ?len:int ->
  Bytes.t ->
  src:Psd_ip.Addr.t ->
  dst:Psd_ip.Addr.t ->
  (t * Psd_mbuf.Mbuf.t, decode_error) result
(** Parse a transport payload ([len] bytes at [off]; defaults cover the
    whole buffer) and verify its checksum; returns the header and the
    data as a zero-copy view into [b]. The caller must not mutate the
    buffer afterwards. The error distinguishes malformed segments
    ([Truncated], [Bad_offset]) from checksum mismatches so the caller
    can account them separately. *)
