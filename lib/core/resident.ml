open Psd_cost
module Tcp = Psd_tcp.Tcp
module Sockbuf = Psd_socket.Sockbuf
module Dgramq = Psd_socket.Dgramq
module Cond = Psd_sim.Cond

type layer = {
  state_of : exn -> t;
  place : exn -> t -> unit;
  reported : exn -> unit;
  handlers : Tcp.handlers;
}

and keeper = {
  layer : layer;
  stack : Netstack.t;
  changed : Cond.t;
  copy_in : bool;
  loans : bool;
}

and stream = {
  keeper : keeper;
  pcb : Tcp.pcb;
  mutable rcv : Sockbuf.t option;
  mutable blocked : Cond.t option;
  mutable tx_enqueued : int;
  mutable tx_acked : int;
  mutable completions : (int * (unit -> unit)) list;
  mutable on_hangup : (unit -> unit) option;
}

and payload = Cooked of string | Loaned of Psd_mbuf.Mbuf.t

and listening = {
  lkeeper : keeper;
  listener : Tcp.listener;
  accept : Cond.t;
  mutable shut : bool;
}

and message = { mkeeper : keeper; udp : Psd_udp.Udp.pcb; dq : payload Dgramq.t }

and t =
  | Unplaced | Elsewhere | Stream of stream | Listening of listening
  | Message of message

let keeper layer ~stack ~changed ~copy_in ~loans =
  { layer; stack; changed; copy_in; loans }

let stack k = k.stack

let changed k = k.changed

let ctx k = Netstack.ctx k.stack

let eng k = (ctx k).Ctx.eng

let readable = function
  | Stream { rcv = Some b; _ } -> Sockbuf.readable b
  | Message { dq; _ } -> Dgramq.readable dq
  | Listening { listener; _ } -> Tcp.pending listener > 0
  | Stream { rcv = None; _ } | Unplaced | Elsewhere -> false

(* A stream's receive buffer and condition are built on first use.
   Only a delivery (data, FIN or error) makes a stream readable, so
   the upcalls that deliver tell [changed], and a rebuilt buffer needs
   no change hook. *)
let rcv st =
  match st.rcv with
  | Some b -> b
  | None ->
    let b = Sockbuf.create (eng st.keeper) () in
    st.rcv <- Some b;
    b

let blocked st =
  match st.blocked with
  | Some c -> c
  | None ->
    let c = Cond.create (eng st.keeper) in
    st.blocked <- Some c;
    c

(* An unbuilt condition has no waiters: a fiber builds it to wait. *)
let wake st = Option.iter Cond.broadcast st.blocked

(* Rebuilding a buffer with nothing to read (no bytes, EOF or error
   mark), no loan and no blocked reader reproduces it exactly, so a
   drained connection drops back to paying nothing. *)
let deflate st =
  match st.rcv with
  | Some b
    when (not (Sockbuf.readable b))
         && Sockbuf.loaned b = 0
         && not (Sockbuf.has_waiters b) ->
    st.rcv <- None
  | Some _ | None -> ()

(* Completions are registered in enqueue order with monotone
   thresholds, so the head is the earliest outstanding send. With
   [~all] (error, close, migration) every buffer comes home: one that
   could never fire would strand the caller's memory. *)
let rec fire_completions st ~all =
  match st.completions with
  | (threshold, k) :: rest when all || st.tx_acked >= threshold ->
    st.completions <- rest;
    k ();
    fire_completions st ~all
  | _ -> ()

(* The hook runs in its own immediate fiber, when a reader resumed out
   of a blocked [recv] would run: firing it inside [deliver_fin] or
   [on_error] would reenter TCP input mid-segment, and hooks typically
   call [close], which blocks. *)
let fire_hangup st =
  match st.on_hangup with
  | Some f ->
    st.on_hangup <- None;
    Psd_sim.Engine.spawn (eng st.keeper) ~name:"sock-hangup" f
  | None -> ()

let on_hangup st f =
  st.on_hangup <- Some f;
  match st.rcv with
  | Some b when Sockbuf.eof b || Sockbuf.error b <> None -> fire_hangup st
  | Some _ | None -> ()

let delivered owner st m =
  let ctx = ctx st.keeper in
  Ctx.charge ctx Phase.Proto_input
    (ctx.Ctx.plat.Platform.mbuf_op + ctx.Ctx.sync_ns);
  (match st.rcv with
  | Some b when Sockbuf.has_waiters b ->
    Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns
  | _ -> ());
  Sockbuf.append (rcv st) m;
  Cond.broadcast st.keeper.changed;
  st.keeper.layer.reported owner

let fin owner st () =
  Sockbuf.set_eof (rcv st);
  Cond.broadcast st.keeper.changed;
  st.keeper.layer.reported owner;
  fire_hangup st

let established _ st () = wake st

let acked _ st n =
  st.tx_acked <- st.tx_acked + n;
  fire_completions st ~all:false;
  wake st;
  Cond.broadcast st.keeper.changed

(* The connection error lives in the receive buffer, which is never
   dropped once it carries one. *)
let failed owner st e =
  Sockbuf.set_error (rcv st) (Format.asprintf "%a" Tcp.pp_error e);
  Cond.broadcast st.keeper.changed;
  fire_completions st ~all:true;
  wake st;
  st.keeper.layer.reported owner;
  fire_hangup st

(* Run [f] on the stream the connection's owner holds, if any; a
   top-level [f] makes firing an upcall allocate no closure. *)
let[@inline] on_stream state_of f pcb x =
  let owner = Tcp.owner pcb in
  match state_of owner with Stream st -> f owner st x | _ -> ()

let layer ~state_of ~place ~reported =
  {
    state_of;
    place;
    reported;
    handlers =
      {
        Tcp.null_handlers with
        Tcp.deliver = (fun pcb m -> on_stream state_of delivered pcb m);
        deliver_fin = (fun pcb -> on_stream state_of fin pcb ());
        on_established = (fun pcb -> on_stream state_of established pcb ());
        on_acked = (fun pcb n -> on_stream state_of acked pcb n);
        on_error = (fun pcb e -> on_stream state_of failed pcb e);
      };
  }

(* The stream is in place, and named by its owner, before any upcall
   can look for it. *)
let hold keeper ~owner pcb =
  let st =
    {
      keeper;
      pcb;
      rcv = None;
      blocked = None;
      tx_enqueued = 0;
      tx_acked = 0;
      completions = [];
      on_hangup = None;
    }
  in
  keeper.layer.place owner (Stream st);
  Tcp.set_owner pcb owner;
  st

let claim st = Tcp.set_handlers st.pcb st.keeper.layer.handlers

let serve k ~owner pcb =
  let st = hold k ~owner pcb in
  claim st;
  st

(* The connection claims no data until [claim]: a session that
   migrates once established takes what arrived along undelivered. *)
let connect k ~owner ~src_port (ip, port) =
  hold k ~owner
    (Tcp.connect (Netstack.tcp k.stack) ~handlers:k.layer.handlers
       ~claim_data:false ~src_port ~dst:ip ~dst_port:port ())

let import k ~owner (snap : Tcp.snapshot) =
  let st = hold k ~owner (snap :> Tcp.pcb) in
  ignore
    (Tcp.import (Netstack.tcp k.stack) ~owner ~handlers:k.layer.handlers snap);
  st

let read st ~max = Sockbuf.read (rcv st) ~max

let consumed st n =
  if n > 0 then Tcp.user_consumed st.pcb n;
  deflate st

let copy_out m =
  Psd_util.Copies.count Psd_util.Copies.Rx_copyout (Psd_mbuf.Mbuf.length m);
  Psd_mbuf.Mbuf.to_string m

let would_block = "operation would block"

let closing = "connection closing"

let refused st =
  match Option.bind st.rcv Sockbuf.error with
  | Some _ as e -> e
  | None -> if Tcp.can_send st.pcb then None else Some closing

(* A stack sharing the sender's memory (a library, or the NIC by DMA)
   takes a view: strings are immutable, and an owned buffer is the
   caller's promise not to write. Time is charged by byte count. *)
let capture k data ~off ~len =
  if k.copy_in then begin
    Psd_util.Copies.count Psd_util.Copies.Tx_copyin len;
    Psd_mbuf.Mbuf.of_bytes data ~off ~len
  end
  else Psd_mbuf.Mbuf.of_bytes_view data ~off ~len

let enqueue st data ~off ~len =
  Tcp.send st.pcb (capture st.keeper data ~off ~len);
  st.tx_enqueued <- st.tx_enqueued + len

let space st = Session.snd_hiwat - Tcp.sndq_length st.pcb

let rec push st data ~off ~len =
  if off >= len then Ok len
  else
    let room =
      Cond.until (blocked st) (fun () ->
          if refused st <> None then Some 0
          else
            let sp = space st in
            if sp > 0 then Some sp else None)
    in
    if room = 0 then Error (Option.value (refused st) ~default:closing)
    else begin
      let n = Int.min room (len - off) in
      enqueue st data ~off ~len:n;
      push st data ~off:(off + n) ~len
    end

let send st data ~len ~block =
  if block then push st data ~off:0 ~len
  else
    match refused st with
    | Some e -> Error e
    | None when space st <= 0 -> Error would_block
    | None ->
      let n = Int.min (space st) len in
      enqueue st data ~off:0 ~len:n;
      Ok n

let wait_established st =
  Cond.until (blocked st) (fun () ->
      match Tcp.state st.pcb with
      | Tcp.Syn_sent | Tcp.Syn_received -> None
      | Tcp.Closed -> Some (Error (Option.value (refused st) ~default:closing))
      | _ -> Some (Ok ()))

(* Acceptors wait on the listener's own condition, so a connection
   resumes only them; [changed] tells the layer's select. *)
let listen k ~owner ~port ~backlog =
  let listener = Tcp.listen (Netstack.tcp k.stack) ~port ~backlog () in
  let accept = Cond.create (eng k) in
  Tcp.on_ready listener (fun () ->
      Cond.broadcast accept;
      Cond.broadcast k.changed);
  k.layer.place owner
    (Listening { lkeeper = k; listener; accept; shut = false })

let accept l =
  Cond.until l.accept (fun () ->
      if l.shut then Some None
      else Option.map Option.some (Tcp.accept_ready l.listener))

let received k owner dq (dg : Psd_udp.Udp.datagram) =
  let ctx = ctx k in
  if Dgramq.has_waiters dq then Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns;
  let payload =
    if k.loans then Loaned dg.payload else Cooked (copy_out dg.payload)
  in
  ignore
    (Dgramq.push dq ~src:(Psd_ip.Addr.to_int dg.src, dg.src_port) payload);
  k.layer.reported owner

let bind_udp k ~owner ~port ~peer =
  let dq = Dgramq.create (eng k) () in
  Dgramq.on_change dq (fun () -> Cond.broadcast k.changed);
  match
    Psd_udp.Udp.bind (Netstack.udp k.stack) ~port
      ~receive:(fun dg -> received k owner dq dg)
  with
  | Ok udp ->
    Option.iter (fun (ip, p) -> Psd_udp.Udp.connect udp ip p) peer;
    Ok (k.layer.place owner (Message { mkeeper = k; udp; dq }))
  | Error `Port_in_use -> Error "port in use in stack"

let send_dgram m ~dst data ~len =
  match Psd_udp.Udp.take_error m.udp with
  | Some e -> Error e
  | None -> (
    match Psd_udp.Udp.send m.udp ?dst (capture m.mkeeper data ~off:0 ~len) with
    | Ok () -> Ok ()
    | Error `No_destination -> Error "destination required"
    | Error `No_route -> Error "no route to host"
    | Error `Too_big -> Error "message too long")

let recv_dgram m ~max =
  let (ip, port), payload = Dgramq.recv m.dq in
  let data = match payload with Cooked s -> s | Loaned v -> copy_out v in
  let data = if String.length data > max then String.sub data 0 max else data in
  (data, (Psd_ip.Addr.of_int ip, port))

let close = function
  | Stream st -> Tcp.shutdown_send st.pcb
  | Listening l ->
    (* a blocked acceptor wakes to find its listener closed *)
    l.shut <- true;
    Tcp.close_listener (Netstack.tcp l.lkeeper.stack) l.listener;
    Cond.broadcast l.accept
  | Message m -> Psd_udp.Udp.close (Netstack.udp m.mkeeper.stack) m.udp
  | Unplaced | Elsewhere -> ()

let wind_down k ~ended =
  {
    Tcp.null_handlers with
    Tcp.deliver =
      (fun pcb m ->
        let n = Psd_mbuf.Mbuf.length m in
        Psd_sim.Engine.spawn (eng k) ~name:"drain" (fun () ->
            Tcp.user_consumed pcb n));
    on_state = (fun _ s -> if s = Tcp.Closed then ended ());
  }

let abort = function
  | Stream st -> Tcp.abort st.pcb
  | r -> close r

let release_port ports ~claimed port =
  if claimed then Portalloc.release ports port
