type t = {
  eng : Engine.t;
  mutable held : bool;
  waiters : (unit -> unit) Queue.t;
}

let create eng = { eng; held = false; waiters = Queue.create () }

let acquire t =
  if t.held then
    (* Ownership is handed off directly by release. *)
    Engine.suspend t.eng (fun resume -> Queue.push resume t.waiters)
  else t.held <- true

let release t =
  if not t.held then invalid_arg "Lock.release: not held";
  if Queue.is_empty t.waiters then t.held <- false
  else (Queue.pop t.waiters) ()

let with_lock t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e
