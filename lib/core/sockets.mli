(** The application programming interface: BSD sockets, implemented by
    the proxy/library decomposition.

    An {!app} is one application address space. Its socket calls are
    dispatched on the application's session {!home}, which {!System}
    builds once from the configuration's placement:

    - {e In-kernel} ([Local], [Trap]): every call traps into the kernel
      stack.
    - {e Offload} ([Local], [Ring]): every call posts and reaps
      descriptors on the smart NIC's ring; the stack runs on the NIC.
    - {e Server} ([Proxied], no library): every call is an RPC to the
      operating-system server.
    - {e Library} ([Proxied] with a library stack; the paper's
      architecture): [socket]/[bind]/[connect]/[listen]/[accept]/
      [close]/[select]/[fork] go through the proxy to the server, which
      establishes sessions and {e migrates} them into the application's
      protocol library; [send]/[recv] then run entirely at user level
      against the migrated session. After {!fork}, sessions have been
      returned to the server and data operations are routed there —
      exactly the fallback the paper describes.

    All calls that may block must run in a simulation fiber. The API is
    syntactically close to the BSD one on purpose (source-level
    compatibility, paper Section 2.1). *)

type app
type t
(** A socket descriptor. *)

(** How a call reaches a stack on this host. *)
type crossing =
  | Trap  (** a system call into the kernel stack *)
  | Ring of { nic : Psd_cost.Platform.nic; pipe : Psd_mach.Nicpipe.t }
      (** the smart NIC's descriptor ring, charged from [nic] *)

(** The kernel's or the NIC's stack, shared by every application. *)
type local = {
  stack : Netstack.t;
  tcp_ports : Portalloc.t;
  udp_ports : Portalloc.t;
  crossing : crossing;
}

(** Where an application's sessions live. *)
type home =
  | Local of local  (** In-kernel and Offload placements *)
  | Proxied of {
      server : Os_server.t;
      app_id : int;  (** this application's id at the server *)
      library : Netstack.t option;
          (** where sessions migrate (Library placement); [None] keeps
              them in the server (Server placement) *)
    }

(** How an open socket currently reaches its session — observable for
    tests and experiments. *)
type location =
  | Loc_library  (** session migrated into this application *)
  | Loc_server  (** session resident in the operating-system server *)
  | Loc_kernel  (** a stack on this host: the kernel's or the NIC's *)
  | Loc_none  (** not yet bound/connected *)

(* --- application lifecycle -------------------------------------------- *)

val app_stack : app -> Netstack.t option
(** The application's protocol library stack (Library placement only). *)

val fork : app -> name:string -> app
(** The BSD [fork] protocol: every library-resident session is returned
    to the operating-system server first (paper Table 1, [proxy_return]),
    then the task forks. Parent and child descriptors afterwards share
    the server-resident sessions. A stream takes along the bytes and the
    FIN its reader had not consumed, so [recv] through the server still
    returns them, and a [recv] already blocked on the stream asks the
    server. Datagrams the library had queued and the application had not
    read are dropped, as a full queue drops them. *)

val exit : app -> unit
(** Task death: connections in the app's own stack are aborted (RST to
    peers), its listeners and datagram sockets closed, and the server
    cleans up naming state. *)

(* --- the socket calls --------------------------------------------------- *)

val stream : app -> t
(** [socket(AF_INET, SOCK_STREAM, 0)]. Raises [Failure] on a server
    error, preserving the server's error text; use {!try_stream} for
    the [result] form. *)

val dgram : app -> t
(** [socket(AF_INET, SOCK_DGRAM, 0)]. Raises [Failure] on a server
    error; use {!try_dgram} for the [result] form. *)

val try_stream : app -> (t, string) result
(** Like {!stream}, but a failed creation returns the operating-system
    server's error as [Error] instead of raising — the typed-error form
    of the call, matching {!send}/{!recv}. *)

val try_dgram : app -> (t, string) result
(** [result]-returning {!dgram}. *)

val bind : t -> ?port:int -> unit -> (int, string) result
(** Returns the bound port (ephemeral when [port] is omitted). *)

val connect : t -> Psd_ip.Addr.t -> int -> (unit, string) result
(** Blocking active open. *)

val listen : t -> ?backlog:int -> unit -> (unit, string) result

val accept : t -> (t, string) result
(** Blocking; returns the connected socket. *)

val send : t -> ?dst:Session.endpoint -> string -> (int, string) result
(** Blocking send ([write]/[sendto]); applies send-buffer backpressure
    for streams. Returns the byte count written. *)

val recv : t -> max:int -> (string, string) result
(** Blocking receive; [""] means EOF on a stream. *)

val recvfrom :
  t -> max:int -> (string * Session.endpoint option, string) result
(** Like {!recv} but also reports the datagram source. *)

(* --- NEWAPI shared-buffer calls (paper's NEWAPI rows) ------------------- *)

type loan
(** A borrowed view of receive-buffer memory, handed out by
    {!recv_loan}. The application reads the packet body where the
    delivery channel deposited it — no copy-out — and must give the
    memory back with {!return_loan}, which is when buffer space (and
    the TCP receive window the bytes held open) is reclaimed. The view
    must not be used after return. *)

val loan_view : loan -> Psd_mbuf.Mbuf.t
(** The loaned bytes (empty at stream EOF). *)

val loan_length : loan -> int

val recv_loan : t -> max:int -> (loan, string) result
(** NEWAPI receive: blocking like {!recv}, but the data is lent, not
    copied out. A zero-length loan means EOF on a stream. Datagram
    loans preserve message boundaries and ignore [max] (the whole
    datagram is lent). Charges exactly {!recv}'s virtual time; only
    the physical copy disappears. Requires a local (kernel or library)
    session — server-resident sockets cannot share buffers. *)

val return_loan : t -> loan -> unit
(** Give the loaned memory back. Deterministic reclamation point:
    sockbuf space frees and the TCP window reopens here, never earlier
    and never by GC. Raises [Invalid_argument] on double return. *)

val send_owned :
  t ->
  ?dst:Session.endpoint ->
  Bytes.t ->
  completion:(unit -> unit) ->
  (int, string) result
(** NEWAPI send: the caller's buffer is aliased into the stack as a
    shared view — no copy-in — and ownership transfers to the stack
    until [completion] fires. For streams that is when every byte of
    this send has been acknowledged (completions also fire on error
    and at {!close}, so the buffer always comes home); for datagrams
    the frame gather copies the bytes before the call returns, so
    [completion] fires synchronously. The buffer must not be written
    until then. Blocking/backpressure behaviour, partial non-blocking
    writes, and virtual-time charges are exactly {!send}'s. A failed
    send never fires [completion], and the buffer is the caller's again
    when the call returns: a stream send fails only on a connection
    error, which has already dropped any part of it the stack had
    queued. *)

val select : ?timeout_ns:int -> t list -> t list
(** Readability select over sockets of one application. Implemented
    cooperatively: locally-ready sockets return without contacting the
    server; otherwise the proxy registers interest, calls through to the
    server, and application-level protocol libraries notify the server
    of readiness changes ([proxy_status], paper Section 3.2). *)

val close : t -> unit
(** For library-resident streams, the session (and its shutdown
    handshake, TIME_WAIT included) migrates back to the server. *)

val on_hangup : t -> (unit -> unit) -> unit
(** [on_hangup s k] runs [k] once when the peer closes its send side
    (FIN) or the connection errors — immediately if it already has.
    Event-driven alternative to blocking in {!recv} for the close: a
    server holding a million idle connections registers a hangup hook
    and exits its per-connection fiber, instead of keeping a blocked
    reader (and the receive buffer it pins) alive per connection.
    At most one hook per socket; a second registration replaces the
    first. Local (kernel or library) stream sessions only: on any other
    socket the hook is ignored. *)

val set_nodelay : t -> bool -> unit

val set_nonblocking : t -> bool -> unit
(** In non-blocking mode, {!recv}/{!recvfrom} with nothing buffered,
    {!send} with a full send buffer, and {!accept} with an empty queue
    return [Error "operation would block"]; stream sends may write
    partially. Pair with {!select}, as BSD programs do. *)

val shutdown : t -> (unit, string) result
(** [shutdown(fd, SHUT_WR)]: close the send side (FIN after pending
    data); the socket remains readable until the peer closes. *)

(* --- introspection ------------------------------------------------------ *)

val location : t -> location
val local_endpoint : t -> Session.endpoint option
val remote_endpoint : t -> Session.endpoint option
val kind : t -> Session.kind
val readable : t -> bool
(** Readiness of a session in a local stack; [false] for a socket whose
    session the operating-system server holds ({!select} asks it). *)

(* --- wiring (used by System) -------------------------------------------- *)

val make_app :
  host:Psd_mach.Host.t ->
  task:Psd_mach.Task.t ->
  call_ctx:Psd_cost.Ctx.t ->
  newapi:bool ->
  forker:(name:string -> app) ->
  home ->
  app
(** Assembled by {!System.app}; not meant for direct use. [call_ctx] is
    charged for the application's side of each call; [newapi] (the
    shared-buffer API) removes the per-byte copy charge at the socket
    boundary and queues received datagrams as loanable views; [forker]
    creates the child application for {!fork}. *)

val fork_inherited : app -> t list
(** The descriptors an application holds (for a forked child: the
    duplicates inherited from its parent), oldest first. *)
