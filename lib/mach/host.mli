(** A simulated machine: one CPU, one hardware platform, tasks, and a
    Mach-style kernel boundary. *)

type t

val create :
  eng:Psd_sim.Engine.t -> plat:Psd_cost.Platform.t -> name:string -> t

val eng : t -> Psd_sim.Engine.t

val cpu : t -> Psd_sim.Cpu.t

val plat : t -> Psd_cost.Platform.t

val kernel_ctx : t -> Psd_cost.Ctx.t
(** The context in which kernel machinery (interrupts, packet filter,
    IPC) charges its time. *)

val fresh_task_id : t -> int
