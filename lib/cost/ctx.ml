type role = Kernel_stack | Server_stack | Library_stack

type t = {
  eng : Psd_sim.Engine.t;
  cpu : Psd_sim.Cpu.t;
  plat : Platform.t;
  role : role;
  prio : Psd_sim.Cpu.prio;
  sync_ns : int;
  wakeup_ns : int;
  mutable breakdown : Breakdown.t option;
}

let create ~eng ~cpu ~plat ~role =
  let prio =
    match role with
    | Kernel_stack -> Psd_sim.Cpu.Kernel
    | Server_stack | Library_stack -> Psd_sim.Cpu.User
  in
  let sync_ns =
    match role with
    | Kernel_stack -> plat.Platform.sync_kernel
    | Server_stack -> plat.Platform.sync_heavy
    | Library_stack -> plat.Platform.sync_light
  in
  let wakeup_ns =
    match role with
    | Kernel_stack -> plat.Platform.wakeup_kernel
    | Server_stack -> plat.Platform.wakeup_heavy
    | Library_stack -> plat.Platform.wakeup_light
  in
  { eng; cpu; plat; role; prio; sync_ns; wakeup_ns; breakdown = None }

let account t phase ns =
  match t.breakdown with
  | Some b -> Breakdown.add b phase ns
  | None -> ()

let charge_at t prio phase ns =
  if ns > 0 then begin
    account t phase ns;
    Psd_sim.Cpu.consume t.cpu ~prio ns
  end

let charge_at_k t prio phase ns k x =
  if ns > 0 then begin
    account t phase ns;
    Psd_sim.Cpu.consume_k t.cpu ~prio ns k x
  end
  else k x

let charge t phase ns = charge_at t t.prio phase ns
