(** Mach-style synchronous RPC between tasks on one host.

    This is the control-path transport: the proxy's calls into the
    operating-system server (paper Table 1), and every socket call in the
    server-based configuration.

    Cost accounting: the {e entire} messaging overhead — trap, one message
    each way, per-byte copies, and both scheduler handoffs — is charged to
    the caller's context under the caller's phase. Caller and server share
    the host CPU, so attributing the overhead at the call site is
    time-equivalent and keeps the latency-breakdown attribution simple.
    Handlers charge only their actual protocol work. *)

type ('req, 'resp) port

val create_port : Host.t -> ('req, 'resp) port

val serve :
  ('req, 'resp) port -> ?workers:int -> ('req -> 'resp) -> unit
(** Serve requests with at most [workers] (default 2) concurrent server
    fibers. The handler runs in a server fiber and may block; a request
    that arrives while [workers] handlers run waits its turn in FIFO
    order. Fibers are started on demand and end when the queue is empty,
    so an idle port keeps none alive; event order is that of [workers]
    fibers parked on the queue from the start, less their start-up
    events. *)

val call :
  ('req, 'resp) port ->
  ctx:Psd_cost.Ctx.t ->
  phase:Psd_cost.Phase.t ->
  ?req_bytes:int ->
  ?resp_size:('resp -> int) ->
  'req ->
  'resp
(** Synchronous RPC; blocks the calling fiber. [req_bytes] (default 64, a
    small control message) sizes the request's per-byte copy cost;
    [resp_size] computes the reply's from the actual response (a [recv]
    reply is charged for the data it carries, not the buffer offered). *)

val oneway :
  ('req, 'resp) port ->
  ctx:Psd_cost.Ctx.t ->
  phase:Psd_cost.Phase.t ->
  ?req_bytes:int ->
  'req ->
  unit
(** Fire-and-forget message (half the cost of {!call}); any response is
    discarded. *)

val queue_length : ('req, 'resp) port -> int
(** Requests waiting for a server fiber. *)
