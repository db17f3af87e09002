(** What a protocol stack holds for a session, wherever the stack lives:
    the kernel's, the smart NIC's, an application's library or the
    operating-system server's. One service runs in every placement
    (paper Section 2.1), so the stack-side half of a session is written
    once; {!Sockets} keeps the application boundary and {!Os_server}
    naming, filters and migration. The two differ only in their {!layer}
    and in how their {!keeper}s are built.

    Port rule: a session gives back only a port it claimed
    ({!release_port}); an accepted stream names its listener's port and
    claims none. *)

type layer
(** How one layer names its sessions, and the TCP upcalls its streams
    share. *)

type keeper
(** One layer's sessions in one stack. *)

(** A connected stream, sized for the C1M workload: the receive buffer
    and the condition blocked callers wait on are built on first use,
    and the buffer is dropped again once drained. *)
type stream = {
  keeper : keeper;
  pcb : Psd_tcp.Tcp.pcb;
  mutable rcv : Psd_socket.Sockbuf.t option;
      (** holds the connection error once one arrived *)
  mutable blocked : Psd_sim.Cond.t option;  (** a connect, or a send *)
  mutable tx_enqueued : int;  (** bytes handed to TCP *)
  mutable tx_acked : int;  (** bytes TCP reported acknowledged *)
  mutable completions : (int * (unit -> unit)) list;
      (** NEWAPI owned sends, each due at a [tx_acked] threshold *)
  mutable on_hangup : (unit -> unit) option;
      (** fired once at the peer's FIN or a connection error *)
}

(** A queued datagram: a string the classic API cooked at delivery, or
    the payload view the NEWAPI lends at receive. *)
type payload = Cooked of string | Loaned of Psd_mbuf.Mbuf.t

type listening = {
  lkeeper : keeper;
  listener : Psd_tcp.Tcp.listener;
  accept : Psd_sim.Cond.t;
  mutable shut : bool;  (** closed: a woken acceptor fails *)
}

type message =
  { mkeeper : keeper; udp : Psd_udp.Udp.pcb; dq : payload Psd_socket.Dgramq.t }

(** [Unplaced] (no protocol state yet) and [Elsewhere] (another stack
    holds the session) hold nothing here. *)
type t =
  | Unplaced | Elsewhere | Stream of stream | Listening of listening
  | Message of message

val layer :
  state_of:(exn -> t) -> place:(exn -> t -> unit) -> reported:(exn -> unit) ->
  layer
(** A session's owner token (the [exn] its PCB carries) names it to its
    layer: [state_of] reads what the layer holds for it, [place] puts
    there what a call below builds, and [reported] runs after a delivery
    changed its readiness. Built once per layer. *)

val keeper :
  layer -> stack:Netstack.t -> changed:Psd_sim.Cond.t -> copy_in:bool ->
  loans:bool -> keeper
(** [changed] is broadcast when a session's readiness may have changed;
    [copy_in]: the stack is in another address space, so send data is
    copied in, else captured as a view; [loans]: datagrams queue as
    views. *)

val stack : keeper -> Netstack.t

val changed : keeper -> Psd_sim.Cond.t

val readable : t -> bool

val serve : keeper -> owner:exn -> Psd_tcp.Tcp.pcb -> stream
(** A live connection's stream; what arrived before is delivered now. *)

val connect : keeper -> owner:exn -> src_port:int -> Session.endpoint -> stream
(** An active open. Its data stays undelivered until {!claim}. *)

val claim : stream -> unit

val import : keeper -> owner:exn -> Psd_tcp.Tcp.snapshot -> stream
(** The stream of a connection migrating into this stack. *)

val rcv : stream -> Psd_socket.Sockbuf.t

val read :
  stream -> max:int -> (Psd_mbuf.Mbuf.t, [ `Eof | `Error of string ]) result
(** Blocks; the caller charges its exit, then calls {!consumed}. *)

val consumed : stream -> int -> unit
(** Reopen the window; drop a buffer left with nothing to say. *)

val copy_out : Psd_mbuf.Mbuf.t -> string

val would_block : string

val send : stream -> Bytes.t -> len:int -> block:bool -> (int, string) result
(** Blocking, a large write goes in as send space opens; non-blocking,
    what fits goes in. *)

val wait_established : stream -> (unit, string) result

val fire_completions : stream -> all:bool -> unit

val on_hangup : stream -> (unit -> unit) -> unit
(** Register the hook; it fires at once if the stream already hung up. *)

val listen : keeper -> owner:exn -> port:int -> backlog:int -> unit

val accept : listening -> Psd_tcp.Tcp.pcb option
(** Blocks; [None] once the listener is closed. *)

val bind_udp :
  keeper -> owner:exn -> port:int -> peer:Session.endpoint option ->
  (unit, string) result

val send_dgram :
  message -> dst:Session.endpoint option -> Bytes.t -> len:int ->
  (unit, string) result
(** A pending soft error refuses the send before any byte leaves. *)

val recv_dgram : message -> max:int -> string * Session.endpoint
(** Blocks; the datagram is truncated to [max]. *)

val close : t -> unit

val wind_down : keeper -> ended:(unit -> unit) -> Psd_tcp.Tcp.handlers
(** A closed connection's handlers: what arrives is consumed and
    discarded, so the peer is not stalled; [ended] runs when TCP is
    done with it. *)

val abort : t -> unit
(** Task death: a stream is reset. *)

val release_port : Portalloc.t -> claimed:bool -> int -> unit
