(** Mach-style synchronous RPC between tasks on one host.

    This is the control-path transport: the proxy's calls into the
    operating-system server (paper Table 1), and every socket call in the
    server-based configuration. A port carries jobs: a caller hands it
    the work the server performs for one message, and the port runs it
    in one of the server's worker fibers. What the message says, and
    what its reply says, is the job's business, so one port serves any
    typed protocol.

    Cost accounting: the {e entire} messaging overhead — trap, one message
    each way, per-byte copies, and both scheduler handoffs — is charged to
    the caller's context under the caller's phase. Caller and server share
    the host CPU, so attributing the overhead at the call site is
    time-equivalent and keeps the latency-breakdown attribution simple.
    Jobs charge only their actual protocol work. *)

type port

val create_port : Host.t -> port
(** A port served by at most 16 concurrent server fibers (the
    operating-system server's worker pool). A job runs in a server fiber
    and may block; a job that arrives while 16 run waits its turn in
    FIFO order. Fibers are started on demand and end when the queue is
    empty, so an idle port keeps none alive; event order is that of 16
    fibers parked on the queue from the start, less their start-up
    events. *)

val call :
  port ->
  ctx:Psd_cost.Ctx.t ->
  phase:Psd_cost.Phase.t ->
  ?req_bytes:int ->
  ?resp_size:('a -> int) ->
  (unit -> 'a) ->
  'a
(** Synchronous RPC: the job runs on the port and its result is the
    reply; blocks the calling fiber. [req_bytes] (default 64, a small
    control message) sizes the request's per-byte copy cost;
    [resp_size] computes the reply's from the actual result (a [recv]
    reply is charged for the data it carries, not the buffer offered). *)

val oneway :
  port -> ctx:Psd_cost.Ctx.t -> phase:Psd_cost.Phase.t -> (unit -> unit) -> unit
(** Fire-and-forget 64-byte control message (half the cost of {!call});
    the job runs on the port and nothing comes back. *)
