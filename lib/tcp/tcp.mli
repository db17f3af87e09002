(** TCP (RFC 793 + the BSD Net/2-era congestion machinery).

    One [Tcp.t] is the TCP instance of one protocol stack — in-kernel,
    in the UX server, or in an application's protocol library. It
    implements:

    - three-way handshake, active and passive open, simultaneous close;
    - sliding-window data transfer with BSD-style output decisions
      (Nagle, silly-window avoidance, window-update ACKs, delayed ACKs);
    - retransmission with Jacobson/Karels RTT estimation, Karn's rule and
      exponential backoff; persist probes against zero windows;
    - slow start, congestion avoidance, fast retransmit and fast recovery;
    - out-of-order segment reassembly;
    - full teardown: FIN in both directions, TIME_WAIT with 2MSL, RST.

    Crucially for the paper, a live connection's entire state can be
    {!export}ed from one instance and {!import}ed into another — this is
    the mechanism by which the operating-system server migrates a session
    into an application's protocol library after [accept]/[connect], and
    back again before [fork]/[close] (paper Section 3.1). *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

val pp_state : Format.formatter -> state -> unit

type error =
  | Refused  (** RST received during connect *)
  | Reset  (** RST received on an established connection *)
  | Timed_out  (** retransmission limit exceeded *)

val pp_error : Format.formatter -> error -> unit

type t
type pcb
type listener

type handlers = {
  deliver : pcb -> Psd_mbuf.Mbuf.t -> unit;
      (** in-order data, called once per newly contiguous chunk *)
  deliver_fin : pcb -> unit;  (** peer closed its send side (EOF) *)
  on_established : pcb -> unit;
  on_acked : pcb -> int -> unit;
      (** bytes newly acknowledged; wakes senders *)
  on_error : pcb -> error -> unit;
  on_state : pcb -> state -> unit;  (** after every state transition *)
}
(** Every callback receives the connection it fired for, so one
    [handlers] record can serve every connection of a stack
    (per-connection context lives behind {!set_owner}) — at one million
    connections, six closures per socket were a measurable share of
    per-connection memory. Closure-per-connection handlers still work:
    ignore the [pcb] argument. *)

val null_handlers : handlers

val set_owner : pcb -> exn -> unit
(** Attach an upcall token for shared handlers to recover per-connection
    state from (an [exn] as a universal type: declare
    [exception Sock of t] and match it back). Cleared to {!No_owner}
    when the connection is dropped. *)

val owner : pcb -> exn

exception No_owner
(** Default {!owner} value. *)

type stats = {
  mutable segs_out : int;
  mutable bytes_out : int;  (** payload bytes, first transmissions *)
  mutable segs_in : int;
  mutable bytes_in : int;  (** payload bytes accepted in order *)
  mutable rexmt_segs : int;
  mutable fast_rexmt : int;
  mutable dup_acks_in : int;
  mutable ooo_segs : int;
  mutable acks_delayed : int;
  mutable rst_out : int;
  mutable drop_checksum : int;
      (** well-formed segments whose internet checksum failed *)
  mutable drop_malformed : int;
      (** truncated segments or impossible data offsets — kept separate
          from {!drop_checksum} so corruption-injection statistics can
          tell garbled payloads from garbled framing *)
  mutable drop_no_pcb : int;
  mutable predict_hit : int;
      (** synchronized-state segments that match the Van Jacobson
          header-prediction predicate (steady state, next expected
          sequence, in window, no control flags). A classifier only:
          every segment takes the same input processing. *)
  mutable predict_miss : int;
      (** synchronized-state segments that do not match it *)
}

val create :
  ctx:Psd_cost.Ctx.t ->
  ip:Psd_ip.Ip.t ->
  ?mss:int ->
  ?msl_ns:int ->
  ?rto_min_ns:int ->
  ?rto_init_ns:int ->
  ?delack_ns:int ->
  ?default_rcv_buf:int ->
  ?keep_idle_ns:int ->
  ?keep_interval_ns:int ->
  ?keep_max_probes:int ->
  ?pcb_pool:int ->
  unit ->
  t
(** Registers the instance as the IP protocol-6 handler of [ip]. Defaults:
    MSS 1460, MSL 30 s, minimum RTO 500 ms, initial RTO 1 s, delayed-ACK
    200 ms, 24 KB receive buffer (the per-configuration buffer sizes of
    Table 2 are set here). A connection gives up after 12
    retransmissions.
    [pcb_pool] bounds the PCB free list (default 1024 records; [0]
    disables pooling — dispatch is bit-identical either way, which the
    differential suite checks). *)

(* --- opening ---------------------------------------------------------- *)

val connect :
  t ->
  ?handlers:handlers ->
  ?claim_data:bool ->
  ?rcv_buf:int ->
  src_port:int ->
  dst:Psd_ip.Addr.t ->
  dst_port:int ->
  unit ->
  pcb
(** Active open: sends the SYN and returns immediately; [on_established]
    or [on_error] fires later. [src_port] must be allocated by the
    caller's port authority (the operating-system server in decomposed
    configurations). [rcv_buf] is the receive-window limit (default
    24 KB). *)

val listen : t -> port:int -> ?backlog:int -> unit -> listener
(** Passive open. Handshakes complete autonomously; finished connections
    queue on the listener (default backlog 5, SYNs beyond it dropped). *)

val accept_ready : listener -> pcb option
(** Pop a completed connection, if any (callers block via {!on_ready}). *)

val on_ready : listener -> (unit -> unit) -> unit
(** Callback fired whenever a connection becomes ready to accept. *)

val pending : listener -> int

val close_listener : t -> listener -> unit

(* --- data transfer ---------------------------------------------------- *)

val send : pcb -> Psd_mbuf.Mbuf.t -> unit
(** Append to the send queue and run the output engine. The caller
    (socket layer) enforces send-buffer limits via {!sndq_length} and
    [on_acked]. @raise Invalid_argument after [shutdown_send]. *)

val user_consumed : pcb -> int -> unit
(** The application copied [n] bytes out of its receive buffer: opens the
    advertised window, possibly emitting a window-update ACK. *)

val shutdown_send : pcb -> unit
(** Close the send side (queue a FIN after pending data). Idempotent. *)

val abort : pcb -> unit
(** Send RST and drop the connection immediately. *)

(* --- introspection ----------------------------------------------------- *)

val state : pcb -> state
val sndq_length : pcb -> int
(** Bytes queued and not yet acknowledged (send-buffer occupancy). *)

val rcv_buffered : pcb -> int
val local_port : pcb -> int
val remote : pcb -> Psd_ip.Addr.t * int
val set_handlers : ?claim_data:bool -> pcb -> handlers -> unit
(** Install handlers. With [~claim_data:false] the control callbacks
    ([on_established], [on_error], ...) are active but data is NOT
    delivered; it keeps accumulating inside the PCB so a later
    {!export} carries it — used by the operating-system server for
    sessions that will migrate to an application. *)


val set_nodelay : pcb -> bool -> unit

val set_keepalive : pcb -> bool -> unit
(** SO_KEEPALIVE: once the connection has been idle for [keep_idle_ns]
    (default two hours, BSD), send garbage-sequence probes every
    [keep_interval_ns]; after [keep_max_probes] unanswered probes the
    connection is dropped with [Timed_out]. *)

val srtt_ns : pcb -> int
val cwnd : pcb -> int
val stats : t -> stats
val active_pcbs : t -> int

val pool_stats : t -> int * int * int * int
(** [(fresh, hits, puts, free)]: PCBs built from scratch, served from
    the free list, returned to it, and currently parked on it. With no
    leak, [free = puts - hits] and [active_pcbs = fresh + hits - puts]
    (exports excluded) — the scale smoke test asserts this. *)

val set_conn_gauge : t -> (int -> unit) -> unit
(** Install a maintained-count hook: called with [+1] when a PCB enters
    the connection table (passive open, connect, import) and [-1] when
    one leaves (drop, export). Lets a workload tracking the total PCB
    population over many stacks keep a counter instead of walking every
    stack per sample — O(1) per tick regardless of connection count. *)

(* --- session migration ------------------------------------------------- *)

type snapshot

val export : pcb -> snapshot
(** Detach the connection from its instance: timers stop, the PCB leaves
    the demultiplexing tables, and the full protocol state (including
    unacknowledged send data and undelivered receive data) is captured.
    The PCB becomes unusable. *)

val import : t -> ?owner:exn -> handlers:handlers -> snapshot -> pcb
(** Install exported state into another instance; timers restart, and the
    connection continues exactly where it stopped. Undelivered in-order
    data is re-delivered through the new [handlers.deliver] — [owner] is
    installed first, so shared handlers can already recover their
    per-connection state during that re-delivery. *)

val snapshot_size : snapshot -> int
(** Approximate wire size in bytes of the state (what session migration
    pays to move it across the IPC boundary). *)

val snapshot_remote : snapshot -> Psd_ip.Addr.t * int
val snapshot_local_port : snapshot -> int

val can_send : pcb -> bool
(** The connection accepts more send data: open, not shut down. *)

val mute :
  t ->
  local_port:int ->
  remote:Psd_ip.Addr.t * int ->
  duration_ns:int ->
  unit
(** Suppress RST generation for segments of a connection this instance
    does not (or no longer does) hold. Session migration uses this: after
    {!export}, segments already queued toward the old stack must be
    dropped silently rather than answered with a reset. *)
