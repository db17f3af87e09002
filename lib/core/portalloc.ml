(* ephemeral allocation starts above the reserved ports *)
let ephemeral_base = 1024

type t = {
  used : (int, unit) Hashtbl.t;
  (* Watermark cursor: ports in [ephemeral_base, next) have been handed
     out (or skipped over a reservation) at least once; ports >= next
     are virgin. Fresh allocation bumps the watermark — identical to
     the old linear scan's pre-wraparound behavior, but with no rescans
     of the in-use prefix. *)
  mutable next : int;
  (* Released ephemeral ports below the watermark, recycled FIFO once
     the virgin space is exhausted (where the old scan would wrap).
     Entries may be stale (re-reserved since release); [alloc] skips
     and discards those, and [release] re-enqueues, so each port has at
     most one *valid* entry at a time. *)
  free : int Queue.t;
}

let max_port = 65535

let create () =
  {
    used = Hashtbl.create 32;
    next = ephemeral_base;
    free = Queue.create ();
  }

let in_use t port = Hashtbl.mem t.used port

let reserve t port =
  if port <= 0 || port > max_port then Error `In_use
  else if in_use t port then Error `In_use
  else begin
    Hashtbl.replace t.used port ();
    Ok ()
  end

let alloc_ephemeral t =
  let rec fresh () =
    if t.next > max_port then recycle ()
    else begin
      let p = t.next in
      t.next <- p + 1;
      if in_use t p then fresh ()
      else begin
        Hashtbl.replace t.used p ();
        p
      end
    end
  and recycle () =
    match Queue.take_opt t.free with
    | None -> failwith "Portalloc: namespace exhausted"
    | Some p ->
      if in_use t p then recycle ()
      else begin
        Hashtbl.replace t.used p ();
        p
      end
  in
  fresh ()

let release t port =
  if Hashtbl.mem t.used port then begin
    Hashtbl.remove t.used port;
    if port >= ephemeral_base && port < t.next then Queue.add port t.free
  end

let count t = Hashtbl.length t.used

let claim t = function
  | Some port -> (
    match reserve t port with
    | Ok () -> Ok port
    | Error `In_use -> Error "address in use")
  | None -> Ok (alloc_ephemeral t)
