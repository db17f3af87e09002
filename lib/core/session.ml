type sid = int

type kind = Stream | Dgram

type endpoint = Psd_ip.Addr.t * int

let snd_hiwat = 24 * 1024

type req =
  | R_socket of { kind : kind; app : int }
  | R_bind of { sid : sid; port : int option }
  | R_connect of { sid : sid; dst : endpoint }
  | R_listen of { sid : sid; backlog : int }
  | R_accept of { sid : sid }
  | R_return of { sid : sid; tcb : Psd_tcp.Tcp.snapshot option }
  | R_close of { sid : sid; tcb : Psd_tcp.Tcp.snapshot option }
  | R_status of { sid : sid; readable : bool }
  | R_select of { app : int; sids : sid list; timeout_ns : int option }
  | R_arp of Psd_ip.Addr.t
  | R_send of { sid : sid; data : string; dst : endpoint option }
  | R_recv of { sid : sid; max : int }
  | R_shutdown of { sid : sid }
  | R_dup of { sid : sid }
  | R_task_exited of { app : int }

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
