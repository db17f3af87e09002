open Psd_cost
module Task = Psd_sim.Engine.Task

(* At most this many jobs run at once: the operating-system server's
   worker pool. *)
let pool = 16

(* Server workers exist only while there is work: a send that finds
   fewer than [pool] running starts one, which runs jobs until the queue
   is empty and then ends. An idle port therefore holds no fiber. A
   worker is a task woken at delay 0, so its start draws the sequence
   number that the resume of a parked worker looping on a mailbox would
   draw, at the same point: event order is that of a pool of [pool]
   fibers parked from the start (less their start-up events). *)
type port = {
  host : Host.t;
  task : Task.t; (* the workers' fiber handler, built once *)
  q : (unit -> unit) Queue.t;
  mutable running : int;
  mutable run : unit -> unit; (* a worker's body, built once *)
}

(* a worker that raises stays counted, as a dead pool fiber stayed
   missing *)
let rec drain port =
  match Queue.take_opt port.q with
  | Some job ->
    job ();
    drain port
  | None -> port.running <- port.running - 1

let create_port host =
  let port =
    {
      host;
      task = Task.create (Host.eng host) ~name:"ipc-server";
      q = Queue.create ();
      running = 0;
      run = ignore;
    }
  in
  port.run <- (fun () -> Task.tail port.task drain port);
  port

let send port job =
  Queue.push job port.q;
  if port.running < pool then begin
    port.running <- port.running + 1;
    Task.wake port.task port.run
  end

let msg_cost (plat : Platform.t) bytes =
  plat.Platform.ipc_msg + (bytes * plat.Platform.ipc_per_byte)

let call port ~ctx ~phase ?(req_bytes = 64) ?(resp_size = fun _ -> 64) job =
  let plat = ctx.Ctx.plat in
  (* request half: trap, message, handoff to the server *)
  Ctx.charge ctx phase
    (plat.Platform.trap + msg_cost plat req_bytes
   + plat.Platform.wakeup_kernel);
  let result = ref None in
  let cond = Psd_sim.Cond.create (Host.eng port.host) in
  send port (fun () ->
      result := Some (job ());
      Psd_sim.Cond.signal cond);
  let resp = Psd_sim.Cond.until cond (fun () -> !result) in
  (* reply half: message back plus our own wakeup *)
  Ctx.charge ctx phase
    (msg_cost plat (resp_size resp) + plat.Platform.wakeup_kernel);
  resp

let oneway port ~ctx ~phase job =
  let plat = ctx.Ctx.plat in
  Ctx.charge ctx phase
    (plat.Platform.trap + msg_cost plat 64
   + plat.Platform.wakeup_kernel);
  send port job
