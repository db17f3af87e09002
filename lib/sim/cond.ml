type waiter = { mutable fired : bool; resume : unit -> unit }

type t = { eng : Engine.t; mutable queue : waiter list }

let create eng = { eng; queue = [] }

let wait t =
  Engine.suspend t.eng (fun resume ->
      t.queue <- t.queue @ [ { fired = false; resume } ])

let fire w =
  if not w.fired then begin
    w.fired <- true;
    w.resume ()
  end

let signal t =
  match t.queue with
  | [] -> ()
  | w :: rest ->
    t.queue <- rest;
    fire w

let broadcast t =
  let q = t.queue in
  t.queue <- [];
  List.iter fire q

let wait_timeout t dt =
  let result = ref `Ok in
  Engine.suspend t.eng (fun resume ->
      let w = { fired = false; resume } in
      t.queue <- t.queue @ [ w ];
      Engine.schedule t.eng dt (fun () ->
          if not w.fired then begin
            result := `Timeout;
            t.queue <- List.filter (fun w' -> w' != w) t.queue;
            fire w
          end));
  !result

let rec until t f =
  match f () with
  | Some v -> v
  | None ->
    wait t;
    until t f

let until_timeout t dt f =
  let deadline = Engine.now t.eng + dt in
  let rec loop () =
    match f () with
    | Some v -> Some v
    | None ->
      let remaining = deadline - Engine.now t.eng in
      if remaining <= 0 then None
      else
        match wait_timeout t remaining with
        | `Ok -> loop ()
        | `Timeout -> f ()
  in
  loop ()

let waiters t = List.length t.queue
