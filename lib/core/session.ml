type sid = int

type kind = Stream | Dgram

type endpoint = Psd_ip.Addr.t * int

let snd_hiwat = 24 * 1024

type op =
  | Bind of { port : int option }
  | Connect of { dst : endpoint }
  | Listen of { backlog : int }
  | Accept
  | Return of { tcb : Psd_tcp.Tcp.snapshot option }
  | Close of { tcb : Psd_tcp.Tcp.snapshot option }
  | Status of { readable : bool }
  | Send of { data : string; dst : endpoint option }
  | Recv of { max : int }
  | Shutdown
  | Dup

type req =
  | R_socket of { kind : kind; app : int }
  | R_session of sid * op
  | R_select of { sids : sid list; timeout_ns : int option }
  | R_arp of Psd_ip.Addr.t

type migrated = {
  m_local : endpoint;
  m_remote : endpoint option;
  m_tcb : Psd_tcp.Tcp.snapshot option;
}

type resp =
  | Rs_ok
  | Rs_err of string
  | Rs_socket of sid
  | Rs_bound of migrated
  | Rs_connected of migrated
  | Rs_accepted of sid * migrated
  | Rs_select of sid list
  | Rs_arp of Psd_link.Macaddr.t option
  | Rs_recv of (string * endpoint option, [ `Eof | `Err of string ]) result
