(** Execution context: where protocol code is running and what it costs.

    The same TCP/IP/UDP code runs in the kernel, in the UX server, or in an
    application library; a [Ctx.t] tells it which CPU to consume, at what
    scheduling priority, how expensive its synchronisation primitives are,
    and where to attribute the time for the latency-breakdown experiment. *)

type role =
  | Kernel_stack  (** protocol in the kernel: spl is cheap, runs at
                      kernel priority *)
  | Server_stack  (** protocol in the UX server: simulated hardware
                      priority levels are expensive *)
  | Library_stack  (** protocol in the application: plain user-level locks *)

type t = {
  eng : Psd_sim.Engine.t;
  cpu : Psd_sim.Cpu.t;
  plat : Platform.t;
  role : role;
  prio : Psd_sim.Cpu.prio;
  sync_ns : int;  (** one lock / priority-level raise+lower pair *)
  wakeup_ns : int;  (** waking the thread that waits for data *)
  mutable breakdown : Breakdown.t option;
}

val create :
  eng:Psd_sim.Engine.t ->
  cpu:Psd_sim.Cpu.t ->
  plat:Platform.t ->
  role:role ->
  t

val charge : t -> Phase.t -> int -> unit
(** Consume CPU for [ns] at the context's priority and attribute it. *)

val charge_at : t -> Psd_sim.Cpu.prio -> Phase.t -> int -> unit
(** Consume at an explicit priority (interrupt-side work). *)

val charge_at_k :
  t -> Psd_sim.Cpu.prio -> Phase.t -> int -> ('a -> unit) -> 'a -> unit
(** Continuation form of {!charge_at} for a fiber-less task (see
    {!Psd_sim.Engine.Task}): the same charge, then [k x]. *)

val account : t -> Phase.t -> int -> unit
(** Attribute time without consuming CPU (wire transit). *)
