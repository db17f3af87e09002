type prio = Interrupt | Kernel | User

type t = {
  eng : Engine.t;
  mutable busy : bool;
  queues : (unit -> unit) Queue.t array; (* index 0 = Interrupt *)
  mutable busy_time : int;
}

let band = function Interrupt -> 0 | Kernel -> 1 | User -> 2

let create eng =
  { eng; busy = false; queues = Array.init 3 (fun _ -> Queue.create ());
    busy_time = 0 }

let next_waiter t =
  let rec find i =
    if i >= 3 then None
    else if Queue.is_empty t.queues.(i) then find (i + 1)
    else Some (Queue.pop t.queues.(i))
  in
  find 0

(* A waiter sits in its band's queue as the closure that resumes it;
   [release] hands the CPU over by calling it, and [busy] stays true. *)
let wait t prio resume = Queue.push resume t.queues.(band prio)

let acquire t prio =
  if t.busy then Engine.suspend t.eng (wait t prio)
  else t.busy <- true

let release t =
  match next_waiter t with
  | Some resume -> resume ()
  | None -> t.busy <- false

let consume t ~prio ns =
  if ns < 0 then invalid_arg "Cpu.consume: negative time";
  if ns > 0 then begin
    acquire t prio;
    t.busy_time <- t.busy_time + ns;
    Engine.sleep t.eng ns;
    release t
  end

(* Step for step the fiber form above. A waiter is resumed through
   [schedule 0], as [Engine.suspend]'s resume is, so both forms draw the
   same sequence numbers at the same points. A hold that sleeps inline
   allocates nothing. *)
let hold t ns k x =
  t.busy_time <- t.busy_time + ns;
  if Engine.sleep_inline t.eng ns then begin
    release t;
    k x
  end
  else
    (* the bypass was just refused, so this takes the two-step schedule *)
    Engine.sleep_k t.eng ns (fun () ->
        release t;
        k x)

let consume_k t ~prio ns k x =
  if ns < 0 then invalid_arg "Cpu.consume: negative time";
  if ns = 0 then k x
  else if t.busy then begin
    let held () = hold t ns k x in
    wait t prio (fun () -> Engine.schedule t.eng 0 held)
  end
  else begin
    t.busy <- true;
    hold t ns k x
  end

let busy_time t = t.busy_time
