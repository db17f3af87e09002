open Psd_cost
module Task = Psd_sim.Engine.Task

(* At most this many requests are served at once: the
   operating-system server's worker pool. *)
let pool = 16

(* Server workers exist only while there is work: a send that finds
   fewer than [workers] running starts one, which handles requests until
   the queue is empty and then ends. An idle port therefore holds no
   fiber. A worker is a task woken at delay 0, so its start draws the
   sequence number that the resume of a parked worker looping on a
   mailbox would draw, at the same point: event order is that of a pool
   of [workers] fibers parked from the start (less their start-up
   events). *)
type ('req, 'resp) port = {
  host : Host.t;
  task : Task.t; (* the workers' fiber handler, built once *)
  q : ('req * ('resp -> unit)) Queue.t;
  mutable handler : 'req -> 'resp;
  mutable workers : int; (* 0 until [serve] *)
  mutable running : int;
  mutable run : unit -> unit; (* a worker's body, built once *)
}

(* a worker that raises stays counted, as a dead pool fiber stayed
   missing *)
let rec drain port =
  match Queue.take_opt port.q with
  | Some (req, reply) ->
    reply (port.handler req);
    drain port
  | None -> port.running <- port.running - 1

let create_port host =
  let port =
    {
      host;
      task = Task.create (Host.eng host) ~name:"ipc-server";
      q = Queue.create ();
      handler = (fun _ -> invalid_arg "Ipc: port not served");
      workers = 0;
      running = 0;
      run = ignore;
    }
  in
  port.run <- (fun () -> Task.tail port.task drain port);
  port

let start_worker port =
  port.running <- port.running + 1;
  Task.wake port.task port.run

let send port m =
  Queue.push m port.q;
  if port.running < port.workers then start_worker port

let serve port handler =
  port.handler <- handler;
  port.workers <- pool;
  for _ = 1 to Int.min pool (Queue.length port.q) do
    start_worker port
  done

let msg_cost (plat : Platform.t) bytes =
  plat.Platform.ipc_msg + (bytes * plat.Platform.ipc_per_byte)

let call port ~ctx ~phase ?(req_bytes = 64) ?(resp_size = fun _ -> 64) req
    =
  let plat = ctx.Ctx.plat in
  (* request half: trap, message, handoff to the server *)
  Ctx.charge ctx phase
    (plat.Platform.trap + msg_cost plat req_bytes
   + plat.Platform.wakeup_kernel);
  let result = ref None in
  let cond = Psd_sim.Cond.create (Host.eng port.host) in
  send port
    ( req,
      fun resp ->
        result := Some resp;
        Psd_sim.Cond.signal cond );
  let resp = Psd_sim.Cond.until cond (fun () -> !result) in
  (* reply half: message back plus our own wakeup *)
  Ctx.charge ctx phase
    (msg_cost plat (resp_size resp) + plat.Platform.wakeup_kernel);
  resp

let oneway port ~ctx ~phase req =
  let plat = ctx.Ctx.plat in
  Ctx.charge ctx phase
    (plat.Platform.trap + msg_cost plat 64
   + plat.Platform.wakeup_kernel);
  send port (req, fun _ -> ())
