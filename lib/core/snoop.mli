(** A wire tap: a promiscuous NIC that decodes every frame on the
    segment, tcpdump-style.

    Used for diagnostics and in examples/tests — notably to demonstrate
    the security observation of paper Section 3.4: network security is
    fragile against physically vulnerable connections, which is why
    session-level encryption (see {!Secure}) belongs above the transport
    rather than in the packet machinery. *)

type record = {
  at_ns : int;
  line : string;  (** one-line decoded rendering *)
  frame : Bytes.t;
}

type t

val attach : Psd_sim.Engine.t -> Psd_link.Segment.t -> t
(** Attach a promiscuous observer to the segment. It charges no CPU —
    the tap is an instrument, not a simulated host. *)

val records : t -> record list
(** Everything captured so far, oldest first. *)

val count : t -> int

val clear : t -> unit

val payload_seen : t -> string -> bool
(** Does any captured frame contain this byte string? (The
    "could an eavesdropper read it" test.) *)

val pp_trace : Format.formatter -> t -> unit
