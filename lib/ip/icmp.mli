(** ICMP (RFC 792): echo and destination-unreachable.

    ICMP traffic is exactly the "exceptional network packet" class the
    paper assigns to the operating system (Section 3.1): in the
    decomposed configuration the ICMP filter points at the server, whose
    stack answers echoes and turns port-unreachable errors into soft
    errors on the offending UDP sessions. *)

type msg =
  | Echo_request of { id : int; seq : int; payload : string }
  | Echo_reply of { id : int; seq : int; payload : string }
  | Dest_unreachable of { code : int; original : Bytes.t }
      (** [original]: the offending datagram's IP header plus its first
          eight payload bytes, per the RFC *)

val code_port_unreachable : int
(** 3 *)

val encode : msg -> Bytes.t

val decode : Bytes.t -> (msg, string) result
(** Verifies the ICMP checksum. *)

type t

type reply_handler = src:Addr.t -> id:int -> seq:int -> payload:string -> unit

type unreachable_handler =
  orig_dst:Addr.t -> orig_proto:int -> orig_dst_port:int -> unit

val create : ctx:Psd_cost.Ctx.t -> ip:Ip.t -> unit -> t
(** Registers as the IP protocol-1 handler; answers echo requests
    automatically. *)

val ping : t -> dst:Addr.t -> ?id:int -> ?seq:int -> unit -> unit
(** Send an echo request carrying ["psd-ping"] (fire-and-forget; see
    {!on_reply}). *)

val on_reply : t -> reply_handler -> unit

val on_unreachable : t -> unreachable_handler -> unit
(** Fired when a port-unreachable (code 3) arrives whose embedded
    original packet can be parsed — the hook that propagates "connection
    refused" into connected UDP sockets. Other codes are only counted. *)

val send_port_unreachable : t -> dst:Addr.t -> original:Bytes.t -> unit
(** Report that a received datagram ([original] = its IP packet bytes)
    had no listener. *)

type stats = {
  mutable echo_requests_in : int;
  mutable echo_replies_in : int;
  mutable unreachable_in : int;
  mutable unreachable_out : int;
  mutable rejected : int;
      (** messages dropped undecoded: too short, a bad checksum or an
          unsupported type *)
}

val stats : t -> stats
