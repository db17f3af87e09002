type sid = int

type kind = Stream | Dgram

type endpoint = Psd_ip.Addr.t * int

let snd_hiwat = 24 * 1024

type migrated = {
  m_local : endpoint;
  m_tcb : Psd_tcp.Tcp.snapshot option;
}

type _ op =
  | Bind : { port : int option } -> endpoint op
  | Connect : { dst : endpoint } -> migrated op
  | Listen : { backlog : int } -> unit op
  | Accept : (sid * endpoint * migrated) op
  | Return : { tcb : Psd_tcp.Tcp.snapshot option } -> unit op
  | Close : { tcb : Psd_tcp.Tcp.snapshot option } -> unit op
  | Status : { readable : bool } -> unit op
  | Send : { data : string; dst : endpoint option } -> unit op
  | Recv : { max : int } -> (string * endpoint option) op
  | Shutdown : unit op
  | Dup : unit op

type _ req =
  | Socket : { kind : kind; app : int } -> (sid, string) result req
  | Session : sid * 'a op -> ('a, string) result req
  | Select : { sids : sid list; timeout_ns : int option } -> sid list req
  | Arp : Psd_ip.Addr.t -> Psd_link.Macaddr.t option req
