(** The operating-system server (CMU UX in the paper).

    Owns everything about networking that is {e not} on the send/receive
    fast path: the port namespace, connection establishment and teardown,
    session migration, packet-filter installation, routing/ARP metastate,
    the cooperative select protocol, and cleanup after task death.
    In the [Server] placement it also runs the data path: its protocol
    stack holds every session for its whole life.

    A session the server's own stack serves is held as what it is: a
    connected stream (its PCB, receive buffer and send-space
    condition), a listener (its accept condition), or a bound datagram
    PCB (its queue). A session that migrated to its application holds
    nothing here but its name and filter. Every call on a session
    ({!Session.R_session}) finds it once, in one place.

    One server runs per host (except the pure in-kernel configurations,
    which have no server at all). *)

type t

type app_ref
(** A registered application: its id, the packet sink of its protocol
    library and its soft-error callback. *)

val create :
  host:Psd_mach.Host.t ->
  netdev:Psd_mach.Netdev.t ->
  migrate:bool ->
  addr:Psd_ip.Addr.t ->
  routes:Psd_ip.Route.t ->
  ?rcv_buf:int ->
  ?delack_ns:int ->
  unit ->
  t
(** Builds the server's protocol stack (heavy-synchronisation
    [Server_stack] context), installs its catch-all and ARP filters, and
    starts serving the proxy RPC port. With [migrate] (Library
    placement) established sessions move into the applications'
    protocol libraries; without it (Server placement) they stay here. *)

val rpc_port : t -> (Session.req, Session.resp) Psd_mach.Ipc.port
(** Where proxies send their calls (paper Table 1, right column). *)

val register_app :
  t ->
  task:Psd_mach.Task.t ->
  sink:Psd_mach.Netdev.sink ->
  ?on_error:(Session.sid -> string -> unit) ->
  unit ->
  app_ref
(** Introduce an application address space: the server needs its packet
    sink to point session filters at it, its error callback for
    forwarding ICMP soft errors into migrated sessions, and hooks its
    death for connection cleanup. *)

val app_id : app_ref -> int

val stack : t -> Netstack.t

val arp_master : t -> Psd_arp.Cache.t
(** Master ARP cache; application caches subscribe to its updates. *)

val sessions_active : t -> int

val migrations : t -> int
(** Sessions moved between server and applications since start. *)
