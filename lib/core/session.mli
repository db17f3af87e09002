(** Shared vocabulary of the proxy ↔ operating-system-server protocol:
    session identifiers and the typed requests behind each Table 1 call.
    A request's type names its reply, so a caller matches only the
    replies its call can get. *)

type sid = int

type kind = Stream | Dgram

type endpoint = Psd_ip.Addr.t * int

val snd_hiwat : int
(** A stream socket's send high-water mark (24 KB): a send blocks while
    this many bytes are queued and unacknowledged, wherever the session
    lives. *)

(** Where an established session lives after [connect] or [accept]. *)
type migrated = {
  m_local : endpoint;
  m_tcb : Psd_tcp.Tcp.snapshot option;
      (** the stream's state when it migrated to the application;
          [None] for UDP (no protocol state to move, paper Section 3.1)
          and for a session the server keeps *)
}

(** What a proxy asks of one session it names (the [proxy_*] column of
    the paper's Table 1, plus the data operations used while the session
    is server-resident and its cooperative-select status reports),
    indexed by what a successful call returns. *)
type _ op =
  | Bind : { port : int option } -> endpoint op
      (** the bound local endpoint; for UDP under library placement this
          is the moment the session migrates to the application *)
  | Connect : { dst : endpoint } -> migrated op
      (** a session the server serves (Server placement, or returned by
          [fork]) is connected in place and stays there *)
  | Listen : { backlog : int } -> unit op
  | Accept : (sid * endpoint * migrated) op
      (** the new session, its peer, and where it lives *)
  | Return : { tcb : Psd_tcp.Tcp.snapshot option } -> unit op
      (** migrate the session back before [fork] *)
  | Close : { tcb : Psd_tcp.Tcp.snapshot option } -> unit op
      (** drop one descriptor; [tcb] is the live state of a stream the
          application held *)
  | Status : { readable : bool } -> unit op
      (** cooperative select: the application reports a readiness change *)
  | Send : { data : string; dst : endpoint option } -> unit op
  | Recv : { max : int } -> (string * endpoint option) op
      (** data and, for a datagram, its source; [("", None)] at stream
          EOF *)
  | Shutdown : unit op  (** half-close: stop sending, keep receiving *)
  | Dup : unit op
      (** fork duplicated a descriptor: one more reference holds the
          session open *)

(** Requests the proxy sends to the server, indexed by their reply.
    Every call on an existing session is one [Session]: the server finds
    the session once and answers [Error "bad descriptor"] for a sid it
    does not know. *)
type _ req =
  | Socket : { kind : kind; app : int } -> (sid, string) result req
  | Session : sid * 'a op -> ('a, string) result req
  | Select : { sids : sid list; timeout_ns : int option } -> sid list req
      (** block until one of [sids] is readable or has no session
          ([None]: no deadline); [[]] on timeout *)
  | Arp : Psd_ip.Addr.t -> Psd_link.Macaddr.t option req
      (** routing/ARP metastate read *)
