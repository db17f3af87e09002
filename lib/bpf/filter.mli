(** Compilation of network-session specifications to filter programs.

    The operating system installs one per network session (paper Section
    3.1), as its {!flat_of_spec} descriptor: the kernel then demultiplexes
    each incoming Ethernet frame to the address space holding the matching
    endpoint. {!session} is the program form the descriptor is tested by.
    Addresses are IPv4 in host byte order as unsigned 31-bit-safe OCaml
    ints; offsets assume Ethernet II framing. *)

type proto = Tcp | Udp

type spec = {
  proto : proto;
  local_ip : int;  (** destination address of packets we should receive *)
  local_port : int;
  remote_ip : int option;  (** [None] matches any peer (unconnected UDP,
                               listening TCP) *)
  remote_port : int option;
}

type session_flat = {
  f_proto : int;  (** IP protocol number *)
  f_local_ip : int;
  f_local_port : int;
  f_remote_ip : int option;
  f_remote_port : int option;
}

(** Declarative form of a filter program: the fixed-offset field
    comparisons it performs, recorded so the kernel can match common
    frames without running the program. *)
type flat =
  | Session of session_flat  (** a {!session} program *)
  | Ethertype of int
      (** accept frames of one Ethernet type: {!arp} and {!ip_all} *)

val flat_of_spec : spec -> flat

val flat_run : flat -> Bytes.t -> int * int
(** [flat_run f pkt] decides the same accept/reject as interpreting its
    program ([session spec], or {!arp} / {!ip_all} for [Ethertype]) over
    the whole frame, by direct byte comparisons, and returns
    [(accepted_bytes, instructions)] where [instructions] is exactly the
    count {!Vm.run} would report — the fast path must not change the
    simulated demultiplexing cost. *)

val session : spec -> Vm.program
(** Accept exactly the frames addressed to the session: Ethernet type IP,
    matching IP protocol, destination (and optionally source) address and
    port. Non-first IP fragments that match at the address level are
    accepted even though their ports are not inspectable, so that the
    endpoint's reassembly sees every piece. *)

val arp : Vm.program
(** Accept ARP frames (the operating system server handles these). *)

val ip_all : Vm.program
(** Accept every IP frame — the single filter used when a whole protocol
    stack (kernel or server placement) receives all traffic. *)

val arp_flat : flat
(** The flat descriptor of {!arp}. *)

val ip_all_flat : flat
(** The flat descriptor of {!ip_all}. *)
