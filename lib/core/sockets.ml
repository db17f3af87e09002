open Psd_cost
module S = Session

type crossing =
  | Trap
  | Ring of { nic : Platform.nic; pipe : Psd_mach.Nicpipe.t }

type local = {
  stack : Netstack.t;
  tcp_ports : Portalloc.t;
  udp_ports : Portalloc.t;
  crossing : crossing;
}

type home =
  | Local of local
  | Proxied of {
      server : Os_server.t;
      app_id : int;
      library : Netstack.t option;
    }

type app = {
  host : Psd_mach.Host.t;
  task : Psd_mach.Task.t;
  home : home;
  newapi : bool; (* shared buffers: no per-byte copy at the boundary *)
  call_ctx : Ctx.t;
  local_cond : Psd_sim.Cond.t; (* any local socket changed readiness *)
  (* [sockets] may contain closed entries: [close] only marks and
     counts them, and the list is compacted once half of it is dead —
     amortised O(1) per close where eager filtering made closing n
     sockets O(n²). Every iteration over [sockets] must skip closed
     entries. *)
  mutable sockets : t list;
  mutable n_socks : int; (* length of [sockets], dead included *)
  mutable dead_socks : int; (* closed entries awaiting compaction *)
  forker : name:string -> app; (* builds a forked child (System) *)
  mutable next_local_sid : int;
}

(* The socket record holds what every kind shares, packed for the C1M
   workload (booleans into [sflags], endpoints into int fields with
   port [-1] as "none"); what a session's kind needs lives in [loc]. *)
and t = {
  a : app;
  knd : S.kind;
  sid : S.sid;
  mutable loc : loc;
  mutable sflags : int;
  mutable local_ip : Psd_ip.Addr.t;
  mutable local_port : int; (* -1 = unbound *)
  mutable rem_ip : Psd_ip.Addr.t;
  mutable rem_port : int; (* -1 = unconnected *)
}

(* What the application holds for a session, by where it lives. A
   session in a local stack (the one its app's home names,
   {!session_stack}) carries its kind's protocol state and buffers. A
   socket not yet placed ([Fresh]) or whose session the
   operating-system server holds ([Remote]) has no buffer and no
   condition here: its readiness is the server's to report. *)
and loc =
  | Fresh
  | Remote
  | Stream of stream
  | Message of { pcb : Psd_udp.Udp.pcb; dq : dgram_payload Psd_socket.Dgramq.t }
  | Listening of { listener : Psd_tcp.Tcp.listener; accept : Psd_sim.Cond.t }

(* A stream is sized for the C1M workload: a million mostly idle
   connections. The receive buffer and the condition blocked callers
   wait on are built on first use, and the receive buffer is dropped
   again once drained, so an accepted-but-quiet connection holds no
   sockbuf, no condition and no completion. *)
and stream = {
  pcb : Psd_tcp.Tcp.pcb;
  mutable rcv : Psd_socket.Sockbuf.t option;
  mutable blocked : Psd_sim.Cond.t option; (* connect, or send space *)
  mutable err : string option;
  (* NEWAPI send-completion discipline: [send_owned] hands ownership of
     a caller buffer to the stack until every byte of that send is
     acknowledged. Thresholds are cumulative enqueued-byte counts (the
     classic [send] path maintains the counter too, so owned and copied
     sends interleave correctly); completions are FIFO, drained from the
     TCP [on_acked] stream. *)
  mutable tx_enqueued : int;
  mutable tx_acked : int;
  mutable completions : (int * (unit -> unit)) list;
  (* Fired once when the peer closes its send side (FIN) or the
     connection errors — lets a server hold a million idle connections
     open without parking a reader fiber (and its receive buffer) on
     every one of them. *)
  mutable on_hangup : (unit -> unit) option;
}

(* What a datagram socket queues: the classic API stores a cooked
   string (the copy-out happened at delivery), the NEWAPI stores the
   payload view itself, loaned to the application at receive time. *)
and dgram_payload = Cooked of string | Loaned of Psd_mbuf.Mbuf.t

type location = Loc_library | Loc_server | Loc_kernel | Loc_none

exception Sock of t
(* The owner token shared TCP handlers use to find their socket. *)

(* [sflags] bits *)
let f_conn_ok = 1

let f_nodelay = 2

let f_selected = 4

let f_reported = 8 (* readiness the server currently believes *)

let f_closed = 16

let f_nonblocking = 32

let[@inline] sflag s bit = s.sflags land bit <> 0

let[@inline] set_sflag s bit v =
  s.sflags <- (if v then s.sflags lor bit else s.sflags land lnot bit)

let[@inline] conn_ok s = sflag s f_conn_ok

let[@inline] closed s = sflag s f_closed

let[@inline] nonblocking s = sflag s f_nonblocking

let app_stack a =
  match a.home with Proxied p -> p.library | Local _ -> None

(* The stack every local session of [a] lives in: the kernel's or the
   NIC's, or the app's protocol library. *)
let session_stack a =
  match a.home with
  | Local l -> l.stack
  | Proxied { library = Some stack; _ } -> stack
  | Proxied { library = None; _ } -> invalid_arg "Sockets: no local stack"

let stack_ctx a = Netstack.ctx (session_stack a)

let kind s = s.knd

let local_endpoint s =
  if s.local_port < 0 then None else Some (s.local_ip, s.local_port)

let remote_endpoint s =
  if s.rem_port < 0 then None else Some (s.rem_ip, s.rem_port)

let set_local s ((ip, port) : S.endpoint) =
  s.local_ip <- ip;
  s.local_port <- port

let set_rem s ((ip, port) : S.endpoint) =
  s.rem_ip <- ip;
  s.rem_port <- port

let set_nodelay s v =
  set_sflag s f_nodelay v;
  match s.loc with
  | Stream st -> Psd_tcp.Tcp.set_nodelay st.pcb v
  | Fresh | Remote | Message _ | Listening _ -> ()

let eng a = Psd_mach.Host.eng a.host

(* A trap is the only boundary that crosses into another address space:
   it costs a trap rather than a procedure call, and send data really is
   copied in. A library stack shares the application's address space;
   an on-NIC stack reaches it by DMA into loaned memory. *)
let via_trap a =
  match a.home with Local { crossing = Trap; _ } -> true | _ -> false

let location s =
  match s.loc with
  | Fresh -> Loc_none
  | Remote -> Loc_server
  | Stream _ | Message _ | Listening _ -> (
    match s.a.home with Local _ -> Loc_kernel | Proxied _ -> Loc_library)

let readable s =
  match s.loc with
  | Stream { rcv = Some b; _ } -> Psd_socket.Sockbuf.readable b
  | Message { dq; _ } -> Psd_socket.Dgramq.readable dq
  | Listening { listener; _ } -> Psd_tcp.Tcp.pending listener > 0
  | Stream { rcv = None; _ } | Fresh | Remote -> false

(* ------------------------------------------------------------------ *)
(* proxy: RPC plumbing and the cooperative status protocol             *)

(* A proxy call on this socket's session. *)
let rpc s ?(phase = Phase.Control) op =
  match s.a.home with
  | Proxied p ->
    Os_server.call p.server ~ctx:s.a.call_ctx ~phase (S.Session (s.sid, op))
  | Local _ -> invalid_arg "Sockets: no operating-system server"

(* proxy_status: tell the server when a selected socket's readiness
   changes (it cannot observe application-resident sessions itself).
   A "became readable" report must later be withdrawn when the data is
   consumed, even if no select is outstanding at that moment — otherwise
   the server's view goes stale and later selects return spuriously. *)
let notify_status s =
  if s.sid >= 0 then begin
    let r = readable s in
    let must_tell =
      (sflag s f_selected || sflag s f_reported) && r <> sflag s f_reported
    in
    if must_tell then begin
      set_sflag s f_reported r;
      match s.a.home with
      | Proxied p ->
        Os_server.oneway p.server ~ctx:s.a.call_ctx ~phase:Phase.Control
          (S.Session (s.sid, S.Status { readable = r }))
      | Local _ -> ()
    end
  end

let signal_local a = Psd_sim.Cond.broadcast a.local_cond

(* ------------------------------------------------------------------ *)
(* a stream's lazy state: built on first use, dropped when inert       *)

let rcv_of s st =
  match st.rcv with
  | Some b -> b
  | None ->
    let b = Psd_socket.Sockbuf.create (eng s.a) () in
    Psd_socket.Sockbuf.on_change b (fun () -> signal_local s.a);
    st.rcv <- Some b;
    b

let blocked_of s st =
  match st.blocked with
  | Some c -> c
  | None ->
    let c = Psd_sim.Cond.create (eng s.a) in
    st.blocked <- Some c;
    c

(* Waking an unbuilt condition is waking one with no waiters: any fiber
   that could wait builds it first. *)
let wake st = Option.iter Psd_sim.Cond.broadcast st.blocked

(* Drop the receive buffer once it carries no observable state: no
   bytes, no outstanding loan, no EOF or error mark, no blocked reader.
   Rebuilding reproduces this exact state, so readers cannot tell —
   but an accepted-then-drained connection drops back to paying zero. *)
let maybe_deflate_rcv st =
  match st.rcv with
  | Some b ->
    if
      Psd_socket.Sockbuf.cc b = 0
      && Psd_socket.Sockbuf.loaned b = 0
      && (not (Psd_socket.Sockbuf.eof b))
      && Psd_socket.Sockbuf.error b = None
      && not (Psd_socket.Sockbuf.has_waiters b)
    then st.rcv <- None
  | None -> ()

let ewouldblock = "operation would block"

(* ------------------------------------------------------------------ *)
(* cost charging for the data path entry/exit                          *)

let chunks len =
  Int.max 1
    ((len + Psd_mbuf.Mbuf.cluster_size - 1) / Psd_mbuf.Mbuf.cluster_size)

(* Entry into ([~entry:true]) or exit from the socket layer for a
   session in a local (kernel, NIC or library) stack. When the data is
   not copied (library UDP: "the user data can be referenced instead of
   copied", Table 4) no mbuf storage is allocated either.

   Offload boundary: the host's only datapath work is the descriptor
   ring.  A send rings the doorbell; a receive reaps a completion; each
   descriptor pays the bounded host<->NIC queue crossing, attributed to
   its own phase so the breakdown table shows where the boundary cost
   lands.  Everything the stack itself charges is zero under the
   zero-cost platform, so these are the whole host-side cost. *)
let charge_io a ~entry ~len ~copies =
  let via_trap =
    match a.home with
    | Local { crossing = Trap; _ } -> true
    | Local { crossing = Ring { nic; pipe }; _ } ->
      if entry then
        Ctx.charge a.call_ctx Phase.Entry_copyin nic.Platform.doorbell
      else Ctx.charge a.call_ctx Phase.Copyout_exit nic.Platform.completion;
      Ctx.charge a.call_ctx Phase.Desc_crossing nic.Platform.crossing;
      if entry then Psd_mach.Nicpipe.doorbell pipe
      else Psd_mach.Nicpipe.completion pipe;
      false
    | Proxied _ -> false
  in
  let ctx = stack_ctx a in
  let plat = ctx.Ctx.plat in
  let copy_per_byte =
    if a.newapi then 0
    else if via_trap then plat.Platform.copy_user_kernel_per_byte
    else plat.Platform.copy_per_byte
  in
  let boundary =
    (if via_trap then plat.Platform.trap else plat.Platform.proc_call)
    + ctx.Ctx.sync_ns
    + if copies then len * copy_per_byte else 0
  in
  if entry then
    Ctx.charge ctx Phase.Entry_copyin
      (boundary + plat.Platform.socket_layer
      + if copies then chunks len * plat.Platform.mbuf_alloc else 0)
  else Ctx.charge ctx Phase.Copyout_exit (boundary + plat.Platform.mbuf_op)

(* ------------------------------------------------------------------ *)
(* socket creation                                                     *)

let make_socket a knd sid =
  let s =
    {
      a;
      knd;
      sid;
      loc = Fresh;
      sflags = 0;
      local_ip = Psd_ip.Addr.any;
      local_port = -1;
      rem_ip = Psd_ip.Addr.any;
      rem_port = -1;
    }
  in
  a.sockets <- s :: a.sockets;
  a.n_socks <- a.n_socks + 1;
  s

let fresh_local_sid a =
  let sid = a.next_local_sid in
  a.next_local_sid <- sid - 1;
  sid

(* Socket creation reports failures through the [result] API like every
   other call: an error from the operating-system server carries the
   cause (unknown application, resource exhaustion, ...) and it must
   reach the caller instead of collapsing into a generic exception. *)
let create_socket a knd =
  match a.home with
  | Local _ -> Ok (make_socket a knd (fresh_local_sid a))
  | Proxied p ->
    Os_server.call p.server ~ctx:a.call_ctx ~phase:Phase.Control
      (S.Socket { kind = knd; app = p.app_id })
    |> Result.map (make_socket a knd)

let try_stream a = create_socket a S.Stream

let try_dgram a = create_socket a S.Dgram

(* Convenience constructors; even these keep the server's error text. *)
let socket_exn a knd =
  match create_socket a knd with
  | Ok s -> s
  | Error e -> failwith ("socket: " ^ e)

let stream a = socket_exn a S.Stream

let dgram a = socket_exn a S.Dgram

(* ------------------------------------------------------------------ *)
(* handlers wiring for library/kernel-resident sessions                *)

let new_stream pcb =
  {
    pcb;
    rcv = None;
    blocked = None;
    err = None;
    tx_enqueued = 0;
    tx_acked = 0;
    completions = [];
    on_hangup = None;
  }

(* Fire every completion whose byte threshold has been acknowledged.
   FIFO: thresholds are registered in enqueue order and are monotone,
   so the list head is always the earliest outstanding send. With
   [~all] (on error or close) the stack gives the buffers back
   unconditionally — a completion that can never fire would strand the
   caller's memory. *)
let rec fire_completions st ~all =
  match st.completions with
  | (threshold, k) :: rest when all || st.tx_acked >= threshold ->
    st.completions <- rest;
    k ();
    fire_completions st ~all
  | _ -> ()

(* The hook runs in its own immediate fiber — exactly when a reader
   resumed out of a blocked [recv] would run — because firing it
   synchronously from inside [deliver_fin]/[on_error] would reenter
   the TCP input path mid-segment; a fiber (not a bare event) because
   hooks typically call [close], which blocks. *)
let fire_hangup s st =
  match st.on_hangup with
  | Some k ->
    st.on_hangup <- None;
    Psd_sim.Engine.spawn (eng s.a) ~name:"sock-hangup" k
  | None -> ()

let stream_deliver s st m =
  let ctx = stack_ctx s.a in
  Ctx.charge ctx Phase.Proto_input
    (ctx.Ctx.plat.Platform.mbuf_op + ctx.Ctx.sync_ns);
  (match st.rcv with
  | Some b when Psd_socket.Sockbuf.has_waiters b ->
    Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns
  | _ -> ());
  Psd_socket.Sockbuf.append (rcv_of s st) m;
  notify_status s

let stream_fin s st () =
  Psd_socket.Sockbuf.set_eof (rcv_of s st);
  notify_status s;
  fire_hangup s st

let stream_established s st () =
  set_sflag s f_conn_ok true;
  wake st

let stream_acked s st n =
  st.tx_acked <- st.tx_acked + n;
  fire_completions st ~all:false;
  wake st;
  signal_local s.a

let stream_error s st e =
  let msg = Format.asprintf "%a" Psd_tcp.Tcp.pp_error e in
  st.err <- Some msg;
  Psd_socket.Sockbuf.set_error (rcv_of s st) msg;
  fire_completions st ~all:true;
  wake st;
  notify_status s;
  fire_hangup s st

let stream_state s _ _ = signal_local s.a

(* Run [f] on the socket and stream a shared handler fired for. A
   socket that no longer holds the stream (its connect failed) ignores
   it. *)
let[@inline] on_stream f pcb x =
  match Psd_tcp.Tcp.owner pcb with
  | Sock ({ loc = Stream st; _ } as s) -> f s st x
  | _ -> ()

(* One handlers record shared by every stream of every app: each
   callback recovers its socket from the pcb's owner token and the
   stack from the socket's app, so connections share the record instead
   of closing over their socket six times each. Each calls a top-level
   function, so a firing handler allocates no closure. *)
let stream_handlers =
  {
    Psd_tcp.Tcp.deliver = (fun pcb m -> on_stream stream_deliver pcb m);
    deliver_fin = (fun pcb -> on_stream stream_fin pcb ());
    on_established = (fun pcb -> on_stream stream_established pcb ());
    on_acked = (fun pcb n -> on_stream stream_acked pcb n);
    on_error = (fun pcb e -> on_stream stream_error pcb e);
    on_state = (fun pcb state -> on_stream stream_state pcb state);
  }

(* A pcb joins its socket as the socket's stream: owner first, so any
   data re-delivered by [set_handlers] can already find the socket. *)
let adopt_pcb s pcb =
  let st = new_stream pcb in
  s.loc <- Stream st;
  Psd_tcp.Tcp.set_owner pcb (Sock s);
  Psd_tcp.Tcp.set_handlers pcb stream_handlers;
  st

(* A datagram queues into the socket's own [dq], built with its pcb. *)
let udp_receive s dq (dg : Psd_udp.Udp.datagram) =
  let ctx = stack_ctx s.a in
  if Psd_socket.Dgramq.has_waiters dq then
    Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns;
  (* NEWAPI: queue the payload view itself — it is loaned to the
     application at receive time, so no copy-out happens here (or
     ever, on the loaned path). The classic API cooks the string now
     and counts the copy-out at this point. *)
  let payload =
    if s.a.newapi then Loaned dg.Psd_udp.Udp.payload
    else begin
      Psd_util.Copies.count Psd_util.Copies.Rx_copyout
        (Psd_mbuf.Mbuf.length dg.Psd_udp.Udp.payload);
      Cooked (Psd_mbuf.Mbuf.to_string dg.Psd_udp.Udp.payload)
    end
  in
  ignore
    (Psd_socket.Dgramq.push dq
       ~src:(Psd_ip.Addr.to_int dg.Psd_udp.Udp.src, dg.Psd_udp.Udp.src_port)
       payload);
  notify_status s

(* ------------------------------------------------------------------ *)
(* bind / connect / listen / accept                                    *)

let ports (l : local) = function
  | S.Stream -> l.tcp_ports
  | S.Dgram -> l.udp_ports

(* A control call into a local stack: one trap, or one descriptor posted
   and reaped on the ring. *)
let charge_control a (l : local) =
  match l.crossing with
  | Ring { nic; _ } ->
    Ctx.charge a.call_ctx Phase.Control
      (nic.Platform.doorbell + nic.Platform.completion);
    Ctx.charge a.call_ctx Phase.Desc_crossing (2 * nic.Platform.crossing)
  | Trap ->
    let plat = Psd_mach.Host.plat a.host in
    Ctx.charge a.call_ctx Phase.Control plat.Platform.trap

let bind_local_udp s port =
  let stack = session_stack s.a in
  let dq = Psd_socket.Dgramq.create (eng s.a) () in
  Psd_socket.Dgramq.on_change dq (fun () -> signal_local s.a);
  match
    Psd_udp.Udp.bind (Netstack.udp stack) ~port
      ~receive:(fun dg -> udp_receive s dq dg)
  with
  | Ok pcb ->
    s.loc <- Message { pcb; dq };
    set_local s (Netstack.addr stack, port);
    Ok port
  | Error `Port_in_use -> Error "port in use in stack"

(* A socket is bound once: BSD's EINVAL, refused before any trap or
   RPC, so a second bind cannot claim a second port. *)
let bind s ?port () =
  if closed s then Error "bad descriptor"
  else if s.local_port >= 0 then Error "invalid argument"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match Portalloc.claim (ports l s.knd) port with
      | Error e -> Error e
      | Ok p -> (
        match s.knd with
        | S.Dgram -> bind_local_udp s p
        | S.Stream ->
          set_local s (Netstack.addr l.stack, p);
          Ok p))
    | Proxied p -> (
      match rpc s (S.Bind { port }) with
      | Ok local -> (
        set_local s local;
        match (s.knd, p.library) with
        | S.Dgram, Some _ ->
          (* the UDP session has migrated here: bind the library stack *)
          bind_local_udp s (snd local)
        | _ ->
          s.loc <- (if s.knd = S.Dgram then Remote else s.loc);
          Ok (snd local))
      | Error e -> Error e)

(* Connect a datagram socket in its local stack once [bound] it. *)
let udp_connect s bound ip port =
  match (bound, s.loc) with
  | Error e, _ -> Error e
  | Ok _, Message { pcb; _ } ->
    Psd_udp.Udp.connect pcb ip port;
    set_rem s (ip, port);
    Ok ()
  | Ok _, (Fresh | Remote | Stream _ | Listening _) -> Error "invalid state"

(* An established stream migrates into our protocol library; the
   stream (and the owner naming it) must be live at import time
   because any data that arrived during establishment is re-delivered
   through the handlers. *)
let import_stream s (snap : Psd_tcp.Tcp.snapshot) =
  let st = new_stream (snap :> Psd_tcp.Tcp.pcb) in
  s.loc <- Stream st;
  let (_ : Psd_tcp.Tcp.pcb) =
    Psd_tcp.Tcp.import
      (Netstack.tcp (session_stack s.a))
      ~owner:(Sock s) ~handlers:stream_handlers snap
  in
  st

let connect s ip port =
  if closed s then Error "bad descriptor"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match s.knd with
      | S.Dgram ->
        (* a local datagram socket is bound exactly when it is a
           [Message] *)
        udp_connect s (if s.local_port < 0 then bind s () else Ok 0) ip port
      | S.Stream -> (
        let src_port =
          if s.local_port >= 0 then s.local_port
          else Portalloc.alloc_ephemeral l.tcp_ports
        in
        set_local s (Netstack.addr l.stack, src_port);
        let pcb =
          Psd_tcp.Tcp.connect (Netstack.tcp l.stack) ~src_port ~dst:ip
            ~dst_port:port ()
        in
        set_rem s (ip, port);
        let st = adopt_pcb s pcb in
        Psd_tcp.Tcp.set_nodelay pcb (sflag s f_nodelay);
        match
          Psd_sim.Cond.until (blocked_of s st) (fun () ->
              if conn_ok s then Some (Ok ())
              else Option.map Result.error st.err)
        with
        | Ok () -> Ok ()
        | Error e ->
          s.loc <- Fresh;
          Error e))
    | Proxied p -> (
      match rpc s (S.Connect { dst = (ip, port) }) with
      | Ok m -> (
        set_local s m.S.m_local;
        set_rem s (ip, port);
        match (m.S.m_tcb, s.loc, p.library) with
        | Some snap, _, Some _ ->
          let st = import_stream s snap in
          set_sflag s f_conn_ok true;
          Psd_tcp.Tcp.set_nodelay st.pcb (sflag s f_nodelay);
          Ok ()
        | None, Fresh, Some _ ->
          (* library UDP: bind locally with the connected peer *)
          udp_connect s (bind_local_udp s (snd m.S.m_local)) ip port
        | None, Message _, Some _ -> udp_connect s (Ok 0) ip port
        | _ ->
          (* a server-resident session (Server placement, or returned
             by fork) stays where it is *)
          s.loc <- Remote;
          set_sflag s f_conn_ok true;
          Ok ())
      | Error e -> Error e)

let listen s ?(backlog = 5) () =
  if closed s then Error "bad descriptor"
  else if s.knd <> S.Stream then Error "listen on datagram socket"
  else
    match s.a.home with
    | Local l ->
      charge_control s.a l;
      if s.local_port < 0 then Error "listen before bind"
      else begin
        let listener =
          Psd_tcp.Tcp.listen (Netstack.tcp l.stack) ~port:s.local_port
            ~backlog ()
        in
        (* wake acceptors on this socket's own condition so an incoming
           connection resumes only them, not every app-wide waiter; the
           app-wide signal stays for select() *)
        let accept = Psd_sim.Cond.create (eng s.a) in
        Psd_tcp.Tcp.on_ready listener (fun () ->
            Psd_sim.Cond.broadcast accept;
            signal_local s.a);
        s.loc <- Listening { listener; accept };
        Ok ()
      end
    | Proxied _ ->
      let r = rpc s (S.Listen { backlog }) in
      if Result.is_ok r then s.loc <- Remote;
      r

(* [close] broadcasts the listener's condition, so an acceptor blocked
   here wakes and fails instead of waiting on a dead listener. *)
let accept s =
  if closed s then Error "bad descriptor"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match s.loc with
      | Listening { listener; _ }
        when nonblocking s && Psd_tcp.Tcp.pending listener = 0 ->
        Error ewouldblock
      | Listening { listener; accept } -> (
        match
          Psd_sim.Cond.until accept (fun () ->
              if closed s then Some None
              else Option.map Option.some (Psd_tcp.Tcp.accept_ready listener))
        with
        | None -> Error "bad descriptor"
        | Some pcb ->
          let s' = make_socket s.a S.Stream (fresh_local_sid s.a) in
          s'.local_ip <- s.local_ip;
          s'.local_port <- s.local_port;
          set_rem s' (Psd_tcp.Tcp.remote pcb);
          set_sflag s' f_conn_ok true;
          let (_ : stream) = adopt_pcb s' pcb in
          Ok s')
      | Fresh | Remote | Stream _ | Message _ ->
        Error "accept on non-listening socket")
    | Proxied p -> (
      if
        nonblocking s
        && Os_server.call p.server ~ctx:s.a.call_ctx ~phase:Phase.Control
             (S.Select { sids = [ s.sid ]; timeout_ns = Some 0 })
           = []
      then Error ewouldblock
      else
        match rpc s S.Accept with
        | Ok (sid', remote, m) -> (
          let s' = make_socket s.a S.Stream sid' in
          set_local s' m.S.m_local;
          set_rem s' remote;
          set_sflag s' f_conn_ok true;
          match (m.S.m_tcb, p.library) with
          | Some snap, Some _ ->
            let (_ : stream) = import_stream s' snap in
            Ok s'
          | _ ->
            s'.loc <- Remote;
            Ok s')
        | Error e -> Error (if closed s then "bad descriptor" else e))

(* ------------------------------------------------------------------ *)
(* data transfer                                                       *)

let charge_app_overhead s =
  let plat = Psd_mach.Host.plat s.a.host in
  Ctx.charge s.a.call_ctx Phase.Control plat.Platform.app_call_overhead

(* Physical capture of send data into the protocol stack. A trap really
   crosses an address space, so it keeps the user->kernel copyin
   ([Tx_copyin]) — for a NEWAPI caller-owned buffer too: ownership
   transfer degenerates to the classic copyin there (and completion can
   fire as soon as the copy is made). A library or on-NIC stack shares
   the user's memory (OCaml strings are immutable; owned buffers are
   the caller's promise not to write), so the payload is captured as a
   zero-copy view and the only body copy left on the send path is the
   frame gather ([Tx_frame]). Virtual time is charged by [charge_io]
   from the byte count either way — this choice is purely physical. *)
let payload a data ~off ~len =
  if via_trap a then begin
    Psd_util.Copies.count Psd_util.Copies.Tx_copyin len;
    Psd_mbuf.Mbuf.of_bytes data ~off ~len
  end
  else Psd_mbuf.Mbuf.of_bytes_view data ~off ~len

(* NEWAPI ownership transfer of [len] bytes: counted once per transfer,
   not per chunk, and only where the buffer is aliased rather than
   copied in. *)
let count_owned a completion len =
  match completion with
  | Some _ when not (via_trap a) ->
    Psd_util.Copies.count Psd_util.Copies.Tx_owned len
  | _ -> ()

(* Completion thresholds are cumulative enqueued-byte counts and are
   registered in enqueue order, so the FIFO list stays sorted. A send
   whose bytes were all acknowledged during its own backpressure waits
   completes immediately. *)
let register_completion st = function
  | Some k ->
    let threshold = st.tx_enqueued in
    if st.tx_acked >= threshold then k ()
    else st.completions <- st.completions @ [ (threshold, k) ]
  | None -> ()

let hung_up st =
  st.err <> None
  || match st.rcv with Some b -> Psd_socket.Sockbuf.eof b | None -> false

(* Event-driven hangup notification: [k] runs once, when the peer's FIN
   or a connection error arrives — or at once if it already has, which
   closes the race where the FIN beat the registration; without it a
   million-connection server would park a reader fiber per connection
   just to learn about the close. *)
let on_hangup s k =
  match s.loc with
  | Stream st ->
    st.on_hangup <- Some k;
    if hung_up st then fire_hangup s st
  | Fresh | Remote | Message _ | Listening _ -> ()

let send_space st = S.snd_hiwat - Psd_tcp.Tcp.sndq_length st.pcb

let enqueue s st data ~off ~len =
  Psd_tcp.Tcp.send st.pcb (payload s.a data ~off ~len);
  st.tx_enqueued <- st.tx_enqueued + len

(* Send-buffer backpressure: large writes go in as space opens. *)
let rec push_stream s st data ~off ~len =
  if off >= len then Ok len
  else begin
    let space =
      Psd_sim.Cond.until (blocked_of s st) (fun () ->
          if st.err <> None then Some 0
          else
            let sp = send_space st in
            if sp > 0 then Some sp else None)
    in
    if space = 0 then Error (Option.value st.err ~default:"error")
    else begin
      let n = Int.min space (len - off) in
      enqueue s st data ~off ~len:n;
      push_stream s st data ~off:(off + n) ~len
    end
  end

(* The one transmit path. [completion] is [None] for the classic
   copying [send] and [Some k] for the NEWAPI [send_owned], which hands
   the caller's buffer to the stack until [k] fires: for streams once
   every byte of this send is acknowledged, for datagrams as soon as
   the frame gather has copied it. Both charge the same virtual time. *)
let transmit s ?dst data ~completion =
  let len = Bytes.length data in
  charge_app_overhead s;
  if closed s then Error "bad descriptor"
  else
    match s.loc with
    | Stream st ->
      charge_io s.a ~entry:true ~len ~copies:true;
      let before = st.tx_enqueued in
      let r =
        if nonblocking s then
          (* write what fits, never wait *)
          match st.err with
          | Some e -> Error e
          | None ->
            let space = send_space st in
            if space <= 0 then Error ewouldblock
            else begin
              let n = Int.min space len in
              enqueue s st data ~off:0 ~len:n;
              Ok n
            end
        else push_stream s st data ~off:0 ~len
      in
      (* only what the stack took was handed over: a refused send
         books nothing, and a failed one what went in before the
         error *)
      let taken = st.tx_enqueued - before in
      if taken > 0 then count_owned s.a completion taken;
      if Result.is_ok r then register_completion st completion;
      r
    | Message { pcb; _ } -> (
      charge_io s.a ~entry:true ~len ~copies:(via_trap s.a);
      (* a pending soft error (an ICMP port-unreachable from this
         peer) refuses the send before any byte is handed over *)
      match Psd_udp.Udp.take_error pcb with
      | Some e -> Error e
      | None -> (
        match Psd_udp.Udp.send pcb ?dst (payload s.a data ~off:0 ~len) with
        | Ok () ->
          (* the frame gather has already copied the bytes onto the
             wire: ownership returns before the call does *)
          count_owned s.a completion len;
          Option.iter (fun k -> k ()) completion;
          Ok len
        | Error `No_destination -> Error "destination required"
        | Error `No_route -> Error "no route to host"
        | Error `Too_big -> Error "message too long"))
    | Remote when Option.is_some completion ->
      Error "NEWAPI ownership transfer requires a local stack"
    | Remote -> (
      (* a data-bearing RPC copies the payload four times in total
         (paper Section 4.3): charge three message-copy passes here, the
         server's socket layer performs the fourth *)
      Psd_util.Copies.count Psd_util.Copies.Tx_rpc ~n:3 (3 * len);
      rpc s ~phase:Phase.Entry_copyin
        (S.Send { data = Bytes.unsafe_to_string data; dst })
      |> Result.map (fun () -> len))
    | Fresh | Listening _ -> Error "not connected"

let send s ?dst data =
  transmit s ?dst (Bytes.unsafe_of_string data) ~completion:None

(* What every receive checks first: a live descriptor and, in
   non-blocking mode, something to read. *)
let recv_refused s =
  if closed s then Some "bad descriptor"
  else if
    nonblocking s
    && (match s.loc with
       | Stream _ | Message _ -> not (readable s)
       | Fresh | Remote | Listening _ -> false)
  then Some ewouldblock
  else None

let recvfrom s ~max =
  charge_app_overhead s;
  match recv_refused s with
  | Some e -> Error e
  | None -> (
    match s.loc with
    | Stream st -> (
      match Psd_socket.Sockbuf.read (rcv_of s st) ~max with
      | Ok m ->
        let len = Psd_mbuf.Mbuf.length m in
        charge_io s.a ~entry:false ~len ~copies:true;
        Psd_tcp.Tcp.user_consumed st.pcb len;
        notify_status s;
        maybe_deflate_rcv st;
        Psd_util.Copies.count Psd_util.Copies.Rx_copyout len;
        Ok (Psd_mbuf.Mbuf.to_string m, None)
      | Error `Eof -> Ok ("", None)
      | Error (`Error e) -> Error e)
    | Message { dq; _ } ->
      let (src_ip, src_port), payload = Psd_socket.Dgramq.recv dq in
      let payload =
        match payload with
        | Cooked str -> str
        | Loaned m ->
          (* classic call on a NEWAPI socket: the copy-out deferred at
             delivery happens here instead (observational shift only) *)
          Psd_util.Copies.count Psd_util.Copies.Rx_copyout
            (Psd_mbuf.Mbuf.length m);
          Psd_mbuf.Mbuf.to_string m
      in
      let payload =
        if String.length payload > max then String.sub payload 0 max
        else payload
      in
      charge_io s.a ~entry:false ~len:(String.length payload)
        ~copies:true;
      notify_status s;
      Ok (payload, Some (Psd_ip.Addr.of_int src_ip, src_port))
    | Remote -> rpc s ~phase:Phase.Copyout_exit (S.Recv { max })
    | Fresh | Listening _ -> Error "not connected")

let recv s ~max =
  match recvfrom s ~max with Ok (d, _) -> Ok d | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* NEWAPI shared-buffer placements                                     *)

(* The paper's NEWAPI rows: receive hands out *loans* of the library's
   buffers (no copy-out — the application reads the packet where the
   delivery channel deposited it) and send aliases *caller-owned*
   buffers (no copy-in — ownership transfers to the stack until the
   completion fires). Both calls charge exactly the classic calls'
   virtual time (under a NEWAPI config the per-byte copy cost is
   already zero); only the physical copies and their accounting
   disappear, so routing a workload through this API never perturbs
   simulated results. *)

type loan = {
  lview : Psd_mbuf.Mbuf.t; (* borrowed view of the receive buffer *)
  llen : int;
  mutable lreturned : bool;
}

let loan_view l = l.lview

let loan_length l = l.llen

(* Leaving the stack with [len] loaned bytes. Under offload the bytes
   became application-visible by NIC DMA into loaned memory — the
   library placements count this deposit at their delivery channel
   (Pktchan); here the ring is the channel. *)
let lend s ~len =
  charge_io s.a ~entry:false ~len ~copies:true;
  (match s.a.home with
  | Local { crossing = Ring _; _ } ->
    Psd_util.Copies.count Psd_util.Copies.Rx_loan len
  | Local { crossing = Trap; _ } | Proxied _ -> ());
  notify_status s

let recv_loan s ~max =
  charge_app_overhead s;
  match recv_refused s with
  | Some e -> Error e
  | None -> (
    match s.loc with
    | Stream st -> (
      match Psd_socket.Sockbuf.read_loan (rcv_of s st) ~max with
      | Ok m ->
        let len = Psd_mbuf.Mbuf.length m in
        lend s ~len;
        Ok { lview = m; llen = len; lreturned = false }
      | Error `Eof ->
        Ok { lview = Psd_mbuf.Mbuf.empty (); llen = 0; lreturned = false }
      | Error (`Error e) -> Error e)
    | Message { dq; _ } ->
      let _, payload = Psd_socket.Dgramq.recv dq in
      (* datagram loans keep message boundaries: the whole payload is
         lent regardless of [max] (the classic call would truncate;
         a borrower sees the datagram exactly as delivered) *)
      let m =
        match payload with
        | Loaned m -> m
        | Cooked str ->
          (* classic delivery already cooked a private string (the
             socket predates the NEWAPI config, or mixed use): loan a
             view of it — already application-visible, nothing moves *)
          Psd_mbuf.Mbuf.of_bytes_view
            (Bytes.unsafe_of_string str)
            ~off:0 ~len:(String.length str)
      in
      let len = Psd_mbuf.Mbuf.length m in
      lend s ~len;
      Ok { lview = m; llen = len; lreturned = false }
    | Remote -> Error "NEWAPI loans require a local protocol stack"
    | Fresh | Listening _ -> Error "not connected")

(* Deterministic reclamation: buffer space (and, for TCP, the window
   the loaned bytes held open) is released exactly here — never by GC,
   never early. *)
let return_loan s l =
  if l.lreturned then invalid_arg "Sockets.return_loan: already returned";
  l.lreturned <- true;
  match s.loc with
  | Stream st ->
    (* a live loan keeps the sockbuf built, so it is present unless
       this is a zero-length EOF loan with nothing left to release *)
    (match st.rcv with
    | Some b -> Psd_socket.Sockbuf.loan_return b l.llen
    | None -> if l.llen > 0 then invalid_arg "Sockets.return_loan: not loaned");
    if l.llen > 0 then Psd_tcp.Tcp.user_consumed st.pcb l.llen;
    notify_status s;
    maybe_deflate_rcv st
  | Message _ | Remote | Fresh | Listening _ ->
    (* datagram queue space was released at dequeue; the loan only
       pins the payload view, which the borrower is now done with *)
    ()

let send_owned s ?dst data ~completion =
  transmit s ?dst data ~completion:(Some completion)

(* ------------------------------------------------------------------ *)
(* select                                                              *)

let select ?timeout_ns socks =
  match socks with
  | [] -> []
  | first :: _ ->
    let a = first.a in
    let locally_ready () =
      match List.filter readable socks with [] -> None | rs -> Some rs
    in
    match a.home with
    | Local l -> (
      charge_control a l;
      match timeout_ns with
      | None -> Psd_sim.Cond.until a.local_cond locally_ready
      | Some dt -> (
        match Psd_sim.Cond.until_timeout a.local_cond dt locally_ready with
        | Some rs -> rs
        | None -> []))
    | Proxied p -> (
      match locally_ready () with
      | Some rs -> rs (* no operating-system involvement needed *)
      | None -> (
        (* register interest and report current status, then call
           through to the server's select *)
        List.iter
          (fun s ->
            set_sflag s f_selected true;
            (* sync the server's view before blocking there *)
            notify_status s)
          socks;
        let sids = List.map (fun s -> s.sid) socks in
        let ready_sids =
          Os_server.call p.server ~ctx:a.call_ctx ~phase:Phase.Control
            (S.Select { sids; timeout_ns })
        in
        List.iter (fun s -> set_sflag s f_selected false) socks;
        List.filter (fun s -> readable s || List.mem s.sid ready_sids) socks))

(* ------------------------------------------------------------------ *)
(* teardown, fork, exit                                                *)

let release_port s ports =
  if s.local_port >= 0 then Portalloc.release ports s.local_port

let close s =
  if not (closed s) then begin
    set_sflag s f_closed true;
    let a = s.a in
    (* outstanding owned buffers come home: a completion that survived
       the socket would strand the caller's memory forever. Bytes of
       theirs still queued are copied first, so a caller that reuses a
       buffer at once cannot change what the peer receives: a migrating
       session's [export] copies its queues, and a session that stays
       in a stack which aliased the buffer (the NIC's) is copied
       here. *)
    let tcb =
      match s.loc with
      | Stream st ->
        let tcb =
          match a.home with
          | Proxied _ when Psd_tcp.Tcp.state st.pcb <> Psd_tcp.Tcp.Closed ->
            (* graceful shutdown runs in the operating-system server,
               which the pcb now belongs to *)
            s.loc <- Remote;
            Some (Psd_tcp.Tcp.export st.pcb)
          | Local _ when st.completions <> [] && not (via_trap a) ->
            Psd_tcp.Tcp.privatize_sndq st.pcb;
            None
          | Local _ | Proxied _ -> None
        in
        fire_completions st ~all:true;
        tcb
      | Message { pcb; _ } ->
        Psd_udp.Udp.close (Netstack.udp (session_stack a)) pcb;
        None
      | Fresh | Remote | Listening _ -> None
    in
    a.dead_socks <- a.dead_socks + 1;
    if a.dead_socks > 16 && 2 * a.dead_socks >= a.n_socks then begin
      a.sockets <- List.filter (fun s' -> not (closed s')) a.sockets;
      a.n_socks <- List.length a.sockets;
      a.dead_socks <- 0
    end;
    match a.home with
    | Local l ->
      charge_control a l;
      (match s.loc with
      | Stream st -> Psd_tcp.Tcp.shutdown_send st.pcb
      | Listening { listener; accept } ->
        Psd_tcp.Tcp.close_listener (Netstack.tcp l.stack) listener;
        (* a blocked acceptor wakes to find the descriptor closed *)
        Psd_sim.Cond.broadcast accept
      | Fresh | Remote | Message _ -> ());
      release_port s (ports l s.knd)
    | Proxied _ -> ignore (rpc s (S.Close { tcb }))
  end

(* proxy_return: hand a library-resident session to the
   operating-system server. A stream takes along what its reader has
   not consumed — the bytes, and a FIN already delivered — as
   undelivered data, which the server's import delivers again. A
   datagram socket's queue stays behind and is dropped. *)
let return_session s =
  match s.loc with
  | Stream st ->
    s.loc <- Remote;
    if Psd_tcp.Tcp.state st.pcb <> Psd_tcp.Tcp.Closed then begin
      let snap = Psd_tcp.Tcp.export st.pcb in
      Option.iter
        (fun b ->
          let unread =
            match
              Psd_socket.Sockbuf.try_read b ~max:(Psd_socket.Sockbuf.cc b)
            with
            | Ok m -> m
            | Error (`Empty | `Eof | `Error _) -> Psd_mbuf.Mbuf.empty ()
          in
          Psd_tcp.Tcp.unread snap unread ~fin:(Psd_socket.Sockbuf.eof b))
        st.rcv;
      ignore (rpc s (S.Return { tcb = Some snap }))
    end;
    (* [export] copied the send queue: owned buffers come home *)
    fire_completions st ~all:true
  | Message { pcb; _ } ->
    Psd_udp.Udp.close (Netstack.udp (session_stack s.a)) pcb;
    s.loc <- Remote;
    ignore (rpc s (S.Return { tcb = None }))
  | Fresh | Remote | Listening _ -> ()

let fork a ~name =
  let proxied = match a.home with Proxied _ -> true | Local _ -> false in
  (* Per the paper: sessions must be returned to the operating system
     before fork so parent and child share them there. *)
  if proxied then
    List.iter (fun s -> if not (closed s) then return_session s) a.sockets;
  let child = a.forker ~name in
  (* duplicate descriptors: both refer to the same (server) sessions,
     which stay alive until the last reference closes *)
  List.iter
    (fun s ->
      if not (closed s) then begin
        let dup = make_socket child s.knd s.sid in
        dup.loc <- s.loc;
        dup.local_ip <- s.local_ip;
        dup.local_port <- s.local_port;
        dup.rem_ip <- s.rem_ip;
        dup.rem_port <- s.rem_port;
        set_sflag dup f_conn_ok (conn_ok s);
        if proxied && s.sid >= 0 then ignore (rpc s S.Dup)
      end)
    (List.rev a.sockets);
  child

let exit a =
  (* abort library-resident connections: RSTs go to the peers *)
  List.iter
    (fun s ->
      if closed s then ()
      else
        match s.loc with
        | Stream st -> Psd_tcp.Tcp.abort st.pcb
        | Message { pcb; _ } ->
          Psd_udp.Udp.close (Netstack.udp (session_stack a)) pcb
        | Fresh | Remote | Listening _ -> ())
    a.sockets;
  a.sockets <- [];
  a.n_socks <- 0;
  a.dead_socks <- 0;
  Psd_mach.Task.exit a.task

(* ------------------------------------------------------------------ *)
(* wiring                                                              *)

let make_app ~host ~task ~call_ctx ~newapi ~forker home =
  {
    host;
    task;
    home;
    newapi;
    call_ctx;
    local_cond = Psd_sim.Cond.create (Psd_mach.Host.eng host);
    sockets = [];
    n_socks = 0;
    dead_socks = 0;
    forker;
    next_local_sid = -1;
  }

let set_nonblocking s v = set_sflag s f_nonblocking v

let shutdown s =
  if closed s then Error "bad descriptor"
  else
    match s.loc with
    | Stream st ->
      (match s.a.home with
      | Local l -> charge_control s.a l
      | Proxied _ -> () (* a migrated session: a library call *));
      Psd_tcp.Tcp.shutdown_send st.pcb;
      Ok ()
    | Remote -> rpc s S.Shutdown
    | Fresh | Message _ | Listening _ -> Error "not connected"

let fork_inherited a =
  List.rev (List.filter (fun s -> not (closed s)) a.sockets)
