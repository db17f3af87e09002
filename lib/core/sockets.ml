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
  keeper : Resident.keeper option; (* its sessions in a stack here *)
  (* [sockets] may contain closed entries: [close] only marks and
     counts them, and the list is compacted once half of it is dead —
     amortised O(1) per close where eager filtering made closing n
     sockets O(n²). Every iteration over [sockets] must skip closed
     entries. *)
  mutable sockets : t list;
  mutable n_socks : int; (* length of [sockets], dead included *)
  mutable dead_socks : int; (* closed entries awaiting compaction *)
  forker : name:string -> app; (* builds a forked child (System) *)
}

(* The socket record holds what every kind shares, packed for the C1M
   workload (the kind and booleans into [sflags], each endpoint into
   one int, [-1] for none); [loc] is what the app's own stack holds for
   the session ([Elsewhere]: the server does, and answers [select]). *)
and t = {
  a : app;
  sid : S.sid; (* -1 for a socket no server names *)
  mutable loc : Resident.t;
  mutable sflags : int;
  mutable local : int; (* address above the 16-bit port; -1 = unbound *)
  mutable rem : int; (* -1 = unconnected *)
}

type location = Loc_library | Loc_server | Loc_kernel | Loc_none

(* [sflags] bits *)
let f_claimed = 1 (* the local port came from this stack's namespace *)

let f_nodelay = 2

let f_selected = 4

let f_reported = 8 (* readiness the server currently believes *)

let f_closed = 16

let f_nonblocking = 32

let f_dgram = 64 (* the kind: a datagram socket *)

let[@inline] sflag s bit = s.sflags land bit <> 0

let[@inline] set_sflag s bit v =
  s.sflags <- (if v then s.sflags lor bit else s.sflags land lnot bit)

let[@inline] closed s = sflag s f_closed

let[@inline] nonblocking s = sflag s f_nonblocking

let app_stack a =
  match a.home with Proxied p -> p.library | Local _ -> None

(* Where every local session of [a] lives: the kernel's or the NIC's
   stack, or the app's protocol library. *)
let keeper a =
  match a.keeper with
  | Some k -> k
  | None -> invalid_arg "Sockets: no local stack"

let kind s = if sflag s f_dgram then S.Dgram else S.Stream

let pack ((ip, port) : S.endpoint) = (Psd_ip.Addr.to_int ip lsl 16) lor port

let unpack e =
  if e < 0 then None else Some (Psd_ip.Addr.of_int (e lsr 16), e land 0xffff)

let local_endpoint s = unpack s.local

let remote_endpoint s = unpack s.rem

let local_port s = if s.local < 0 then -1 else s.local land 0xffff

let set_local s e = s.local <- pack e

let set_rem s e = s.rem <- pack e

let set_nodelay s v =
  set_sflag s f_nodelay v;
  match s.loc with
  | Stream st -> Psd_tcp.Tcp.set_nodelay st.pcb v
  | Unplaced | Elsewhere | Message _ | Listening _ -> ()

(* A trap is the only boundary that crosses into another address space:
   it costs a trap rather than a procedure call, and send data really is
   copied in. A library stack shares the application's address space;
   an on-NIC stack reaches it by DMA into loaned memory. *)
let via_trap a =
  match a.home with Local { crossing = Trap; _ } -> true | _ -> false

let location s =
  match s.loc with
  | Unplaced -> Loc_none
  | Elsewhere -> Loc_server
  | Stream _ | Message _ | Listening _ -> (
    match s.a.home with Local _ -> Loc_kernel | Proxied _ -> Loc_library)

let readable s = Resident.readable s.loc

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
  let ctx = Netstack.ctx (Resident.stack (keeper a)) in
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
      sid;
      loc = Unplaced;
      sflags = (match knd with S.Dgram -> f_dgram | S.Stream -> 0);
      local = -1;
      rem = -1;
    }
  in
  a.sockets <- s :: a.sockets;
  a.n_socks <- a.n_socks + 1;
  s

(* Socket creation reports failures through the [result] API like every
   other call: an error from the operating-system server carries the
   cause (unknown application, resource exhaustion, ...) and it must
   reach the caller instead of collapsing into a generic exception. *)
let create_socket a knd =
  match a.home with
  | Local _ -> Ok (make_socket a knd (-1))
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
(* the app's sessions in its own stack                                 *)

(* The owner token a stream's pcb and a datagram pcb carry: the shared
   upcalls find the socket, and so its state, through it. *)
exception Sock of t

let layer =
  Resident.layer
    ~state_of:(function Sock s -> s.loc | _ -> Unplaced)
    ~place:(fun o r -> match o with Sock s -> s.loc <- r | _ -> ())
    ~reported:(function Sock s -> notify_status s | _ -> ())

(* A trap crosses into another address space: send data is copied in. *)
let keeper_for ~changed ~newapi home =
  let held stack copy_in =
    Some (Resident.keeper layer ~stack ~changed ~copy_in ~loans:newapi)
  in
  match home with
  | Local { stack; crossing; _ } -> held stack (crossing = Trap)
  | Proxied { library = Some stack; _ } -> held stack false
  | Proxied { library = None; _ } -> None

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
  let k = keeper s.a in
  match Resident.bind_udp k ~owner:(Sock s) ~port ~peer:None with
  | Ok () ->
    set_local s (Netstack.addr (Resident.stack k), port);
    Ok port
  | Error e -> Error e

(* A socket is bound once: BSD's EINVAL, refused before any trap or
   RPC, so a second bind cannot claim a second port. *)
let bind s ?port () =
  if closed s then Error "bad descriptor"
  else if s.local >= 0 then Error "invalid argument"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match Portalloc.claim (ports l (kind s)) port with
      | Error e -> Error e
      | Ok p -> (
        set_sflag s f_claimed true;
        match kind s with
        | S.Dgram -> bind_local_udp s p
        | S.Stream ->
          set_local s (Netstack.addr l.stack, p);
          Ok p))
    | Proxied p -> (
      match rpc s (S.Bind { port }) with
      | Ok local -> (
        set_local s local;
        match (kind s, p.library) with
        | S.Dgram, Some _ ->
          (* the UDP session has migrated here: bind the library stack *)
          bind_local_udp s (snd local)
        | _ ->
          s.loc <- (if kind s = S.Dgram then Elsewhere else s.loc);
          Ok (snd local))
      | Error e -> Error e)

(* Connect a datagram socket in its local stack once [bound] it. *)
let udp_connect s bound ip port =
  match (bound, s.loc) with
  | Error e, _ -> Error e
  | Ok _, Message m ->
    Psd_udp.Udp.connect m.udp ip port;
    set_rem s (ip, port);
    Ok ()
  | Ok _, _ -> Error "invalid state"

let connect s ip port =
  if closed s then Error "bad descriptor"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match kind s with
      | S.Dgram ->
        (* a local datagram socket is bound exactly when it is a
           [Message] *)
        udp_connect s (if s.local < 0 then bind s () else Ok 0) ip port
      | S.Stream -> (
        let src_port =
          if s.local >= 0 then local_port s
          else begin
            set_sflag s f_claimed true;
            Portalloc.alloc_ephemeral l.tcp_ports
          end
        in
        set_local s (Netstack.addr l.stack, src_port);
        set_rem s (ip, port);
        let st =
          Resident.connect (keeper s.a) ~owner:(Sock s) ~src_port (ip, port)
        in
        Resident.claim st;
        Psd_tcp.Tcp.set_nodelay st.pcb (sflag s f_nodelay);
        Resident.wait_established st
        |> Result.map_error (fun e ->
               s.loc <- Unplaced;
               e)))
    | Proxied p -> (
      match rpc s (S.Connect { dst = (ip, port) }) with
      | Ok m -> (
        set_local s m.S.m_local;
        set_rem s (ip, port);
        match (m.S.m_tcb, s.loc, p.library) with
        | Some snap, _, Some _ ->
          (* an established stream migrates into our library *)
          let st = Resident.import (keeper s.a) ~owner:(Sock s) snap in
          Psd_tcp.Tcp.set_nodelay st.pcb (sflag s f_nodelay);
          Ok ()
        | None, Unplaced, Some _ ->
          (* library UDP: bind locally with the connected peer *)
          udp_connect s (bind_local_udp s (snd m.S.m_local)) ip port
        | None, Message _, Some _ -> udp_connect s (Ok 0) ip port
        | _ ->
          (* a server-resident session (Server placement, or returned
             by fork) stays where it is *)
          s.loc <- Elsewhere;
          Ok ())
      | Error e -> Error e)

let listen s ?(backlog = 5) () =
  if closed s then Error "bad descriptor"
  else if kind s <> S.Stream then Error "listen on datagram socket"
  else
    match s.a.home with
    | Local l ->
      charge_control s.a l;
      if s.local < 0 then Error "listen before bind"
      else
        Ok
          (Resident.listen (keeper s.a) ~owner:(Sock s) ~port:(local_port s)
             ~backlog)
    | Proxied _ ->
      let r = rpc s (S.Listen { backlog }) in
      if Result.is_ok r then s.loc <- Elsewhere;
      r

(* [close] wakes an acceptor blocked on its listener, which fails
   instead of waiting on a dead listener. An accepted stream names its
   listener's port but claims none. *)
let accept s =
  if closed s then Error "bad descriptor"
  else
    match s.a.home with
    | Local l -> (
      charge_control s.a l;
      match s.loc with
      | Listening ls
        when nonblocking s && Psd_tcp.Tcp.pending ls.listener = 0 ->
        Error Resident.would_block
      | Listening ls -> (
        match Resident.accept ls with
        | None -> Error "bad descriptor"
        | Some pcb ->
          let s' = make_socket s.a S.Stream (-1) in
          s'.local <- s.local;
          set_rem s' (Psd_tcp.Tcp.remote pcb);
          ignore (Resident.serve (keeper s.a) ~owner:(Sock s') pcb);
          Ok s')
      | Unplaced | Elsewhere | Stream _ | Message _ ->
        Error "accept on non-listening socket")
    | Proxied p -> (
      if
        nonblocking s
        && Os_server.call p.server ~ctx:s.a.call_ctx ~phase:Phase.Control
             (S.Select { sids = [ s.sid ]; timeout_ns = Some 0 })
           = []
      then Error Resident.would_block
      else
        match rpc s S.Accept with
        | Ok (sid', remote, m) -> (
          let s' = make_socket s.a S.Stream sid' in
          set_local s' m.S.m_local;
          set_rem s' remote;
          match (m.S.m_tcb, p.library) with
          | Some snap, Some _ ->
            ignore (Resident.import (keeper s.a) ~owner:(Sock s') snap);
            Ok s'
          | _ ->
            s'.loc <- Elsewhere;
            Ok s')
        | Error e -> Error (if closed s then "bad descriptor" else e))

(* ------------------------------------------------------------------ *)
(* data transfer                                                       *)

let charge_app_overhead s =
  let plat = Psd_mach.Host.plat s.a.host in
  Ctx.charge s.a.call_ctx Phase.Control plat.Platform.app_call_overhead

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
let register_completion (st : Resident.stream) = function
  | Some k ->
    let threshold = st.tx_enqueued in
    if st.tx_acked >= threshold then k ()
    else st.completions <- st.completions @ [ (threshold, k) ]
  | None -> ()

(* Event-driven hangup notification: [k] runs once, when the peer's FIN
   or a connection error arrives — or at once if it already has, which
   closes the race where the FIN beat the registration; without it a
   million-connection server would park a reader fiber per connection
   just to learn about the close. *)
let on_hangup s k =
  match s.loc with
  | Stream st -> Resident.on_hangup st k
  | Unplaced | Elsewhere | Message _ | Listening _ -> ()

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
        Resident.send st data ~len ~block:(not (nonblocking s))
      in
      (* only what the stack took was handed over: a refused send
         books nothing, and a failed one what went in before the
         error *)
      let taken = st.tx_enqueued - before in
      if taken > 0 then count_owned s.a completion taken;
      if Result.is_ok r then register_completion st completion;
      r
    | Message m -> (
      charge_io s.a ~entry:true ~len ~copies:(via_trap s.a);
      match Resident.send_dgram m ~dst data ~len with
      | Ok () ->
        (* the frame gather has already copied the bytes onto the
           wire: ownership returns before the call does *)
        count_owned s.a completion len;
        Option.iter (fun k -> k ()) completion;
        Ok len
      | Error e -> Error e)
    | Elsewhere when Option.is_some completion ->
      Error "NEWAPI ownership transfer requires a local stack"
    | Elsewhere -> (
      (* a data-bearing RPC copies the payload four times in total
         (paper Section 4.3): charge three message-copy passes here, the
         server's socket layer performs the fourth *)
      Psd_util.Copies.count Psd_util.Copies.Tx_rpc ~n:3 (3 * len);
      rpc s ~phase:Phase.Entry_copyin
        (S.Send { data = Bytes.unsafe_to_string data; dst })
      |> Result.map (fun () -> len))
    | Unplaced | Listening _ -> Error "not connected"

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
       | Unplaced | Elsewhere | Listening _ -> false)
  then Some Resident.would_block
  else None

(* [s] still holds [st]: [fork] returns a stream to the server while a
   reader may be blocked on its buffer, and wakes that reader, which
   then asks wherever the session went. *)
let holds s st = match s.loc with Stream st' -> st' == st | _ -> false

let rec receive s ~max =
  match s.loc with
  | Stream st -> (
    match Resident.read st ~max with
    | Error _ when not (holds s st) -> receive s ~max
    | Ok m ->
      let len = Psd_mbuf.Mbuf.length m in
      charge_io s.a ~entry:false ~len ~copies:true;
      Resident.consumed st len;
      notify_status s;
      Ok (Resident.copy_out m, None)
    | Error `Eof -> Ok ("", None)
    | Error (`Error e) -> Error e)
  | Message m ->
    (* a classic call on a NEWAPI socket copies out here what delivery
       deferred (observational shift only) *)
    let data, src = Resident.recv_dgram m ~max in
    charge_io s.a ~entry:false ~len:(String.length data) ~copies:true;
    notify_status s;
    Ok (data, Some src)
  | Elsewhere -> rpc s ~phase:Phase.Copyout_exit (S.Recv { max })
  | Unplaced | Listening _ -> Error "not connected"

let recvfrom s ~max =
  charge_app_overhead s;
  match recv_refused s with Some e -> Error e | None -> receive s ~max

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

let rec borrow s ~max =
  match s.loc with
  | Stream st -> (
    match
      Psd_socket.Sockbuf.read_loan (Resident.rcv st) ~max
    with
    | Error _ when not (holds s st) -> borrow s ~max
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
       lent regardless of [max] (the classic call would truncate; a
       borrower sees the datagram exactly as delivered) *)
    let m =
      match payload with
      | Loaned m -> m
      | Cooked str ->
        (* classic delivery already cooked a private string (the socket
           predates the NEWAPI config, or mixed use): loan a view of it
           — already application-visible, nothing moves *)
        Psd_mbuf.Mbuf.of_bytes_view
          (Bytes.unsafe_of_string str)
          ~off:0 ~len:(String.length str)
    in
    let len = Psd_mbuf.Mbuf.length m in
    lend s ~len;
    Ok { lview = m; llen = len; lreturned = false }
  | Elsewhere -> Error "NEWAPI loans require a local protocol stack"
  | Unplaced | Listening _ -> Error "not connected"

let recv_loan s ~max =
  charge_app_overhead s;
  match recv_refused s with Some e -> Error e | None -> borrow s ~max

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
    Resident.consumed st l.llen;
    notify_status s
  | Message _ | Elsewhere | Unplaced | Listening _ ->
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
      | None -> Psd_sim.Cond.until (Resident.changed (keeper a)) locally_ready
      | Some dt ->
        Option.value ~default:[]
          (Psd_sim.Cond.until_timeout (Resident.changed (keeper a)) dt
             locally_ready))
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
          | Proxied _ ->
            (* graceful shutdown runs in the operating-system server,
               which the pcb now belongs to *)
            s.loc <- Elsewhere;
            if Psd_tcp.Tcp.state st.pcb = Psd_tcp.Tcp.Closed then None
            else Some (Psd_tcp.Tcp.export st.pcb)
          | Local _ ->
            if st.completions <> [] && not (via_trap a) then
              Psd_tcp.Tcp.privatize_sndq st.pcb;
            None
        in
        Resident.fire_completions st ~all:true;
        tcb
      | Unplaced | Elsewhere | Listening _ | Message _ -> None
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
      Resident.close s.loc;
      Resident.release_port (ports l (kind s)) ~claimed:(sflag s f_claimed)
        (local_port s)
    | Proxied _ ->
      Resident.close s.loc;
      ignore (rpc s (S.Close { tcb }))
  end

(* proxy_return: hand a library-resident session to the
   operating-system server. A stream takes along what its reader has
   not consumed — the bytes, and a FIN already delivered — as
   undelivered data, which the server's import delivers again. A
   datagram socket's queue stays behind and is dropped. A reader
   blocked on the stream's buffer wakes once the server holds the
   session, and asks it ([holds]). *)
let return_session s =
  match s.loc with
  | Stream st ->
    s.loc <- Elsewhere;
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
      ignore (rpc s (S.Return { tcb = Some snap }));
      Option.iter
        (fun b ->
          if Psd_socket.Sockbuf.has_waiters b then
            Psd_socket.Sockbuf.set_error b "returned to the server")
        st.rcv
    end;
    (* [export] copied the send queue: owned buffers come home *)
    Resident.fire_completions st ~all:true
  | Message _ ->
    Resident.close s.loc;
    s.loc <- Elsewhere;
    ignore (rpc s (S.Return { tcb = None }))
  | Unplaced | Elsewhere | Listening _ -> ()

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
        child.sockets <-
          { s with a = child; sflags = s.sflags land f_dgram } :: child.sockets;
        child.n_socks <- child.n_socks + 1;
        if proxied && s.sid >= 0 then ignore (rpc s S.Dup)
      end)
    (List.rev a.sockets);
  child

let exit a =
  (* abort library-resident connections: RSTs go to the peers *)
  List.iter (fun s -> if not (closed s) then Resident.abort s.loc) a.sockets;
  a.sockets <- [];
  a.n_socks <- 0;
  a.dead_socks <- 0;
  Psd_mach.Task.exit a.task

(* ------------------------------------------------------------------ *)
(* wiring                                                              *)

let make_app ~host ~task ~call_ctx ~newapi ~forker home =
  let changed = Psd_sim.Cond.create (Psd_mach.Host.eng host) in
  {
    host;
    task;
    home;
    newapi;
    call_ctx;
    keeper = keeper_for ~changed ~newapi home;
    sockets = [];
    n_socks = 0;
    dead_socks = 0;
    forker;
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
    | Elsewhere -> rpc s S.Shutdown
    | Unplaced | Message _ | Listening _ -> Error "not connected"

let fork_inherited a =
  List.rev (List.filter (fun s -> not (closed s)) a.sockets)
