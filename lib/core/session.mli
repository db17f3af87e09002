(** Shared vocabulary of the proxy ↔ operating-system-server protocol:
    session identifiers and the request/response messages behind each
    Table 1 call. *)

type sid = int

type kind = Stream | Dgram

type endpoint = Psd_ip.Addr.t * int

val snd_hiwat : int
(** A stream socket's send high-water mark (24 KB): a send blocks while
    this many bytes are queued and unacknowledged, wherever the session
    lives. *)

(** What a proxy asks of one session it names (the [proxy_*] column of
    the paper's Table 1, plus the data operations used while the session
    is server-resident and its cooperative-select status reports). *)
type op =
  | Bind of { port : int option }
  | Connect of { dst : endpoint }
      (** a session the server serves (Server placement, or returned by
          [fork]) is connected in place and stays there *)
  | Listen of { backlog : int }
  | Accept
  | Return of { tcb : Psd_tcp.Tcp.snapshot option }
      (** migrate the session back before [fork] *)
  | Close of { tcb : Psd_tcp.Tcp.snapshot option }
      (** drop one descriptor; [tcb] is the live state of a stream the
          application held *)
  | Status of { readable : bool }
      (** cooperative select: the application reports a readiness change *)
  | Send of { data : string; dst : endpoint option }
  | Recv of { max : int }
  | Shutdown  (** half-close: stop sending, keep receiving *)
  | Dup
      (** fork duplicated a descriptor: one more reference holds the
          session open *)

(** Requests the proxy sends to the server. Every call on an existing
    session is one [R_session]: the server finds the session once and
    answers [Rs_err "bad descriptor"] for a sid it does not know. *)
type req =
  | R_socket of { kind : kind; app : int }
  | R_session of sid * op
  | R_select of { sids : sid list; timeout_ns : int option }
      (** block until one of [sids] is readable or has no session
          ([None]: no deadline) *)
  | R_arp of Psd_ip.Addr.t  (** routing/ARP metastate read *)

type migrated = {
  m_local : endpoint;
  m_remote : endpoint option;
  m_tcb : Psd_tcp.Tcp.snapshot option;
      (** [None] for UDP — datagram sessions have no protocol state to
          move (paper Section 3.1) *)
}

type resp =
  | Rs_ok
  | Rs_err of string
  | Rs_socket of sid
  | Rs_bound of migrated
      (** session bound; for UDP under library placement this is the
          moment the session migrates to the application *)
  | Rs_connected of migrated
  | Rs_accepted of sid * migrated
  | Rs_select of sid list  (** sessions now readable ([] = timeout) *)
  | Rs_arp of Psd_link.Macaddr.t option
  | Rs_recv of (string * endpoint option, [ `Eof | `Err of string ]) result
