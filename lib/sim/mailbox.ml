type 'a t = { q : 'a Queue.t; nonempty : Cond.t }

let create eng = { q = Queue.create (); nonempty = Cond.create eng }

let send t x =
  Queue.push x t.q;
  Cond.signal t.nonempty

let rec recv t =
  match Queue.take_opt t.q with
  | Some x -> x
  | None ->
    Cond.wait t.nonempty;
    recv t

let recv_timeout t dt = Cond.until_timeout t.nonempty dt (fun () -> Queue.take_opt t.q)

let try_recv t = Queue.take_opt t.q

let length t = Queue.length t.q

(* [List.init] evaluates left to right: oldest first *)
let drain t = List.init (Queue.length t.q) (fun _ -> Queue.take t.q)
