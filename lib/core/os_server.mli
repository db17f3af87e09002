(** The operating-system server (CMU UX in the paper).

    Owns everything about networking that is {e not} on the send/receive
    fast path: the port namespace, connection establishment and teardown,
    session migration, packet-filter installation, routing/ARP metastate,
    the cooperative select protocol, and cleanup after task death.
    In the [Server] placement it also runs the data path: its protocol
    stack holds every session for its whole life.

    Proxies reach the server only through {!call} and {!oneway}: each
    runs the typed request ({!Session.req}) as a job on the server's
    IPC port, so every server interaction is a priced message, and its
    reply has the type the request names.

    A session the server's own stack serves is held and served as a
    {!Resident.t}, as an application's library or kernel stack holds
    its own; one that migrated to its application holds nothing here
    but its name and filter. An ICMP port-unreachable for a datagram
    session that migrated is forwarded into its application library's
    UDP, which holds it as the connected PCB's pending error.

    One server runs per host (except the pure in-kernel configurations,
    which have no server at all). *)

type t

type app_ref
(** A registered application: its id and its protocol library, if it
    has one. *)

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

val call :
  t -> ctx:Psd_cost.Ctx.t -> phase:Psd_cost.Phase.t -> 'a Session.req -> 'a
(** A proxy call (paper Table 1, right column): one IPC round trip on
    the server's port, charged to [ctx] under [phase] and sized by what
    the message carries (a send's payload, a receive's data). Blocks the
    calling fiber until the server has handled the request. *)

val oneway :
  t -> ctx:Psd_cost.Ctx.t -> phase:Psd_cost.Phase.t -> _ Session.req -> unit
(** A fire-and-forget control message (the cooperative select's
    [Status] report): the server handles it and nothing comes back. *)

val register_app :
  t -> task:Psd_mach.Task.t -> library:Netstack.t option -> app_ref
(** Introduce an application address space and its protocol library
    ([None] in the Server placement): the server points the filters of
    sessions that migrate there at the library's sink, forwards ICMP
    port-unreachables into the library's UDP, and hooks the task's
    death for connection cleanup. *)

val app_id : app_ref -> int

val stack : t -> Netstack.t

val arp_master : t -> Psd_arp.Cache.t
(** Master ARP cache; application caches subscribe to its updates. *)

val sessions_active : t -> int

val migrations : t -> int
(** Sessions moved between server and applications since start. *)
