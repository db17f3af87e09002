type t = {
  host : Host.t;
  id : int;
  name : string;
  parent : t option;
  mutable alive : bool;
  mutable exit_hooks : (unit -> unit) list;
}

let create host ?parent ~name () =
  { host; id = Host.fresh_task_id host; name; parent; alive = true;
    exit_hooks = [] }

let id t = t.id
let parent t = t.parent
let alive t = t.alive

let on_exit t hook = t.exit_hooks <- t.exit_hooks @ [ hook ]

let exit t =
  if t.alive then begin
    t.alive <- false;
    List.iter (fun hook -> hook ()) t.exit_hooks;
    t.exit_hooks <- []
  end

let fork t ~name =
  if not t.alive then invalid_arg "Task.fork: dead task";
  create t.host ~parent:t ~name ()
