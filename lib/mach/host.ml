type t = {
  eng : Psd_sim.Engine.t;
  cpu : Psd_sim.Cpu.t;
  plat : Psd_cost.Platform.t;
  name : string;
  kernel_ctx : Psd_cost.Ctx.t;
  mutable next_task_id : int;
}

let create ~eng ~plat ~name =
  let cpu = Psd_sim.Cpu.create eng in
  {
    eng;
    cpu;
    plat;
    name;
    kernel_ctx =
      Psd_cost.Ctx.create ~eng ~cpu ~plat ~role:Psd_cost.Ctx.Kernel_stack;
    next_task_id = 1;
  }

let eng t = t.eng
let cpu t = t.cpu
let plat t = t.plat
let kernel_ctx t = t.kernel_ctx

let fresh_task_id t =
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  id
