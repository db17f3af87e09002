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

(** Requests the proxy sends to the server (the [proxy_*] column of the
    paper's Table 1, plus the data operations used while a session is
    server-resident, the cooperative-select calls, and metastate reads). *)
type req =
  | R_socket of { kind : kind; app : int }
  | R_bind of { sid : sid; port : int option }
  | R_connect of { sid : sid; dst : endpoint }
  | R_listen of { sid : sid; backlog : int }
  | R_accept of { sid : sid }
  | R_return of { sid : sid; tcb : Psd_tcp.Tcp.snapshot option }
      (** migrate a session back before [fork] *)
  | R_close of { sid : sid; tcb : Psd_tcp.Tcp.snapshot option }
  | R_status of { sid : sid; readable : bool }
      (** cooperative select: the application reports a readiness change *)
  | R_select of { app : int; sids : sid list; timeout_ns : int option }
  | R_arp of Psd_ip.Addr.t
  | R_send of { sid : sid; data : string; dst : endpoint option }
  | R_recv of { sid : sid; max : int }
  | R_shutdown of { sid : sid }
      (** half-close: stop sending, keep receiving *)
  | R_dup of { sid : sid }
      (** fork duplicated a descriptor: one more reference holds the
          session open *)
  | R_task_exited of { app : int }

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
