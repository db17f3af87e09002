type 'a t = {
  eng : Engine.t;
  q : 'a Queue.t;
  nonempty : Cond.t;
  (* a [serve] consumer waiting for a message, and the event that
     resumes it (built once) *)
  mutable parked : bool;
  mutable wake : unit -> unit;
  (* the messages a [serve] consumer took off [q] as one train and has
     not handled yet *)
  train : 'a Queue.t;
}

let create eng =
  {
    eng;
    q = Queue.create ();
    nonempty = Cond.create eng;
    parked = false;
    wake = ignore;
    train = Queue.create ();
  }

let send t x =
  Queue.push x t.q;
  if t.parked then begin
    (* the seq [Cond.signal]'s resume of a parked receiver would draw *)
    t.parked <- false;
    t.wake ()
  end
  else Cond.signal t.nonempty

let rec recv t =
  match Queue.take_opt t.q with
  | Some x -> x
  | None ->
    Cond.wait t.nonempty;
    recv t

let recv_timeout t dt = Cond.until_timeout t.nonempty dt (fun () -> Queue.take_opt t.q)

let length t = Queue.length t.q + Queue.length t.train

let untaken t = Queue.length t.q

let parked t = t.parked

(* The consumer's next message: the head of its train, taking all of
   [q] as the next train once that one is handled (a train of one needs
   no transfer). [q] lives long, so its cells are promoted once they wait
   across a minor collection, and a cell pushed behind a promoted one
   stays reachable from it, taken or not, until [q] next empties: taking
   messages one at a time from a queue that rarely empties promotes
   nearly all of them. Taking the train empties [q] at every train. *)
let take t =
  if not (Queue.is_empty t.train) then Queue.take t.train
  else if Queue.length t.q = 1 then Queue.take t.q
  else begin
    Queue.transfer t.q t.train;
    Queue.take t.train
  end

(* The consumer as a task: each wake runs a first pass over the queue,
   with no fiber, handing each head message to [nonblocking] until one
   needs [f]; that one and every later one run under the fiber handler
   so [f] may block (messages sent meanwhile wait their turn). The task
   parks by ending once the queue is empty. Every message is taken off
   the queue before either handler sees it, so [nonblocking x] sees the
   state [f x] would. Its events are a [recv] loop's: one seq at
   creation, where [spawn] draws it, and one per send that finds it
   parked, where the resume does. *)
let serve t ~name ?(nonblocking = fun _ -> false) f =
  let task = Engine.Task.create t.eng ~name in
  let rec consume () =
    if length t = 0 then t.parked <- true
    else begin
      f (take t);
      consume ()
    end
  in
  let blocking x =
    f x;
    consume ()
  in
  let rec first_pass () =
    if length t = 0 then begin
      t.parked <- true;
      Engine.Task.finish task
    end
    else
      let x = take t in
      if nonblocking x then first_pass () else Engine.Task.tail task blocking x
  in
  let run () = Engine.Task.stage task first_pass () in
  t.wake <- (fun () -> Engine.Task.wake task run);
  t.wake ()
