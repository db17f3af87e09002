open Psd_cost
module S = Session

type app_ref = { a_id : int; a_library : Netstack.t option }

(* What the server's own stack holds for a session it serves: each kind
   has its protocol state and the one buffer or condition its callers
   block on, and nothing else. *)
type resident =
  | Stream of {
      pcb : Psd_tcp.Tcp.pcb;
      rcv : Psd_socket.Sockbuf.t;
      acked : Psd_sim.Cond.t; (* senders waiting for send space *)
    }
  | Listener of { listener : Psd_tcp.Tcp.listener; accept : Psd_sim.Cond.t }
  | Dgram of { pcb : Psd_udp.Udp.pcb; dq : string Psd_socket.Dgramq.t }

type location = Embryonic | In_server of resident | In_app

type session = {
  sid : S.sid;
  kind : S.kind;
  app : app_ref;
  mutable lport : int option;
  mutable remote : S.endpoint option;
  mutable location : location;
  mutable filter : Psd_mach.Netdev.filter_id option;
  mutable app_readable : bool;
  mutable closing : bool;
  mutable refs : int; (* descriptors naming this session (fork dups) *)
}

type t = {
  host : Psd_mach.Host.t;
  migrate : bool; (* sessions move into applications (Library placement) *)
  netdev : Psd_mach.Netdev.t;
  stack : Netstack.t;
  tcp_ports : Portalloc.t;
  udp_ports : Portalloc.t;
  arp_master : Psd_arp.Cache.t;
  sessions : (S.sid, session) Hashtbl.t;
  apps : (int, app_ref) Hashtbl.t;
  rpc : Psd_mach.Ipc.port;
  select_cond : Psd_sim.Cond.t;
  mutable next_sid : int;
  mutable next_app : int;
  mutable migrations : int;
}

let eng t = Psd_mach.Host.eng t.host

let sctx t = Netstack.ctx t.stack

let stack t = t.stack

let arp_master t = t.arp_master

let sessions_active t = Hashtbl.length t.sessions

let migrations t = t.migrations

let app_id a = a.a_id

(* ---------------------------------------------------------------- *)
(* filters                                                            *)

let bpf_proto = function S.Stream -> Psd_bpf.Filter.Tcp | S.Dgram -> Psd_bpf.Filter.Udp

let install_session_filter t sess ~sink =
  (match sess.filter with
  | Some id -> Psd_mach.Netdev.detach t.netdev id
  | None -> ());
  match sess.lport with
  | None -> ()
  | Some lport ->
    let spec =
      {
        Psd_bpf.Filter.proto = bpf_proto sess.kind;
        local_ip = Psd_ip.Addr.to_int (Netstack.addr t.stack);
        local_port = lport;
        remote_ip =
          Option.map (fun (ip, _) -> Psd_ip.Addr.to_int ip) sess.remote;
        remote_port = Option.map snd sess.remote;
      }
    in
    let prio = if sess.remote <> None then 5 else 20 in
    let m = Psd_mach.Netdev.Flat (Psd_bpf.Filter.flat_of_spec spec) in
    sess.filter <- Some (Psd_mach.Netdev.attach t.netdev ~prio m ~sink)

let drop_session_filter t sess =
  match sess.filter with
  | Some id ->
    Psd_mach.Netdev.detach t.netdev id;
    sess.filter <- None
  | None -> ()

(* ---------------------------------------------------------------- *)
(* session bookkeeping                                                *)

let ports_of t = function
  | S.Stream -> t.tcp_ports
  | S.Dgram -> t.udp_ports

let destroy_session t sess =
  drop_session_filter t sess;
  (match sess.lport with
  | Some p -> Portalloc.release (ports_of t sess.kind) p
  | None -> ());
  Hashtbl.remove t.sessions sess.sid;
  Psd_sim.Cond.broadcast t.select_cond

(* A stream the server's stack serves: data flows into its socket
   buffer; acks wake blocked senders. [attach] puts the handlers on the
   connection: [set_handlers] on a live one, or an [import]. *)
let serve_stream t sess attach =
  let ctx = sctx t in
  let plat = ctx.Ctx.plat in
  let rcv = Psd_socket.Sockbuf.create (eng t) () in
  let acked = Psd_sim.Cond.create (eng t) in
  Psd_socket.Sockbuf.on_change rcv (fun () ->
      Psd_sim.Cond.broadcast t.select_cond);
  let pcb =
    attach
      {
        Psd_tcp.Tcp.null_handlers with
        Psd_tcp.Tcp.deliver =
          (fun _ m ->
            Ctx.charge ctx Phase.Proto_input
              (plat.Platform.mbuf_op + ctx.Ctx.sync_ns);
            if Psd_socket.Sockbuf.has_waiters rcv then
              Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns;
            Psd_socket.Sockbuf.append rcv m);
        deliver_fin = (fun _ -> Psd_socket.Sockbuf.set_eof rcv);
        on_acked =
          (fun _ _ ->
            Psd_sim.Cond.broadcast acked;
            Psd_sim.Cond.broadcast t.select_cond);
        on_error =
          (fun _ e ->
            Psd_socket.Sockbuf.set_error rcv
              (Format.asprintf "%a" Psd_tcp.Tcp.pp_error e);
            Psd_sim.Cond.broadcast acked);
        on_state =
          (fun _ st ->
            if st = Psd_tcp.Tcp.Closed then
              if sess.closing then destroy_session t sess);
      }
  in
  Stream { pcb; rcv; acked }

(* Handlers used while the server winds a connection down after the
   application closed it: incoming data is discarded but consumed so the
   peer is not stalled. *)
let wire_drain_handlers t sess pcb_ref =
  {
    Psd_tcp.Tcp.null_handlers with
    Psd_tcp.Tcp.deliver =
      (fun _ m ->
        let n = Psd_mbuf.Mbuf.length m in
        Psd_sim.Engine.spawn (eng t) ~name:"drain" (fun () ->
            match !pcb_ref with
            | Some pcb -> Psd_tcp.Tcp.user_consumed pcb n
            | None -> ()));
    on_state =
      (fun _ st ->
        if st = Psd_tcp.Tcp.Closed then destroy_session t sess);
  }

(* A datagram session the server's stack serves, bound to [port] and
   connected to the session's peer if it has one. *)
let serve_dgram t sess port =
  let dq = Psd_socket.Dgramq.create (eng t) () in
  Psd_socket.Dgramq.on_change dq (fun () ->
      Psd_sim.Cond.broadcast t.select_cond);
  let receive dg =
    let ctx = sctx t in
    if Psd_socket.Dgramq.has_waiters dq then
      Ctx.charge ctx Phase.Wakeup ctx.Ctx.wakeup_ns;
    Psd_util.Copies.count Psd_util.Copies.Rx_copyout
      (Psd_mbuf.Mbuf.length dg.Psd_udp.Udp.payload);
    ignore
      (Psd_socket.Dgramq.push dq
         ~src:(Psd_ip.Addr.to_int dg.Psd_udp.Udp.src, dg.Psd_udp.Udp.src_port)
         (Psd_mbuf.Mbuf.to_string dg.Psd_udp.Udp.payload))
  in
  match Psd_udp.Udp.bind (Netstack.udp t.stack) ~port ~receive with
  | Ok pcb ->
    (match sess.remote with
    | Some (ip, p) -> Psd_udp.Udp.connect pcb ip p
    | None -> ());
    Ok (Dgram { pcb; dq })
  | Error `Port_in_use -> Error "port in use in server stack"

(* ---------------------------------------------------------------- *)
(* request handlers                                                   *)

let add_session t ~kind ~app ~lport ~remote =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let sess =
    {
      sid;
      kind;
      app;
      lport;
      remote;
      location = Embryonic;
      filter = None;
      app_readable = false;
      closing = false;
      refs = 1;
    }
  in
  Hashtbl.replace t.sessions sid sess;
  sess

let readiness sess =
  match sess.location with
  | In_app -> sess.app_readable
  | Embryonic -> false
  | In_server (Stream { rcv; _ }) -> Psd_socket.Sockbuf.readable rcv
  | In_server (Listener { listener; _ }) -> Psd_tcp.Tcp.pending listener > 0
  | In_server (Dgram { dq; _ }) -> Psd_socket.Dgramq.readable dq

let handle_socket t ~kind ~app_id =
  match Hashtbl.find_opt t.apps app_id with
  | None -> Error "unknown application"
  | Some app -> Ok (add_session t ~kind ~app ~lport:None ~remote:None).sid

(* A session migrating into its application's protocol library: the
   application's sink takes its packets. A session already there (a
   datagram socket bound, then connected) only has its filter
   refreshed, and is not counted again. *)
let settle_in_app t sess =
  let sink =
    match sess.app.a_library with
    | Some lib -> Netstack.sink lib
    | None -> Psd_mach.Netdev.Enqueue ignore
  in
  install_session_filter t sess ~sink;
  (match sess.location with
  | In_app -> ()
  | Embryonic | In_server _ -> t.migrations <- t.migrations + 1);
  sess.location <- In_app

(* A session migrating back home: the server's stack serves it again. *)
let settle_in_server t sess r =
  sess.location <- In_server r;
  install_session_filter t sess ~sink:(Netstack.sink t.stack);
  t.migrations <- t.migrations + 1

let handle_bind t sess port =
  match Portalloc.claim (ports_of t sess.kind) port with
  | Error e -> Error e
  | Ok port -> (
    sess.lport <- Some port;
    let bound = Ok (Netstack.addr t.stack, port) in
    match (sess.kind, t.migrate) with
    | S.Dgram, true ->
      (* the UDP session migrates to the application at bind time *)
      settle_in_app t sess;
      bound
    | S.Dgram, false -> (
      match serve_dgram t sess port with
      | Ok r ->
        sess.location <- In_server r;
        bound
      | Error e -> Error e)
    | S.Stream, _ ->
      (* only the endpoint name is fixed at bind time for TCP *)
      bound)

(* Establishment is always performed by the operating system: packets
   for the nascent connection come to the server stack. The caller
   waits on a condition of its own, since the session holds nothing in
   the server until the handshake is over. *)
let connect_stream t sess ~port ~dst connected =
  install_session_filter t sess ~sink:(Netstack.sink t.stack);
  let shaken = Psd_sim.Cond.create (eng t) in
  let outcome = ref None in
  let finish r =
    outcome := Some r;
    Psd_sim.Cond.broadcast shaken
  in
  let pcb =
    Psd_tcp.Tcp.connect (Netstack.tcp t.stack)
      ~handlers:
        {
          Psd_tcp.Tcp.null_handlers with
          Psd_tcp.Tcp.on_established = (fun _ -> finish (Ok ()));
          on_error = (fun _ e -> finish (Error e));
        }
      ~claim_data:false ~src_port:port ~dst:(fst dst) ~dst_port:(snd dst) ()
  in
  match Psd_sim.Cond.until shaken (fun () -> !outcome) with
  | Error e ->
    destroy_session t sess;
    Error (Format.asprintf "%a" Psd_tcp.Tcp.pp_error e)
  | Ok () when t.migrate ->
    (* the export quenches this stack: segments racing the filter
       switch draw no RSTs *)
    let snap = Psd_tcp.Tcp.export pcb in
    settle_in_app t sess;
    connected (Some snap)
  | Ok () ->
    sess.location <-
      In_server
        (serve_stream t sess (fun h ->
             Psd_tcp.Tcp.set_handlers pcb h;
             pcb));
    connected None

let handle_connect t sess dst =
  sess.remote <- Some dst;
  let port =
    match sess.lport with
    | Some p -> Ok p
    | None -> Portalloc.claim (ports_of t sess.kind) None
  in
  match port with
  | Error e -> Error e
  | Ok port -> (
    sess.lport <- Some port;
    let connected m_tcb =
      Ok { S.m_local = (Netstack.addr t.stack, port); m_tcb }
    in
    match (sess.kind, sess.location) with
    | S.Dgram, In_server (Dgram { pcb; _ }) ->
      (* a datagram session the server serves (Server placement, or
         returned by fork) is connected where it lives *)
      Psd_udp.Udp.connect pcb (fst dst) (snd dst);
      install_session_filter t sess ~sink:(Netstack.sink t.stack);
      connected None
    | S.Dgram, _ when t.migrate ->
      settle_in_app t sess;
      connected None
    | S.Dgram, _ -> (
      match serve_dgram t sess port with
      | Ok r ->
        sess.location <- In_server r;
        connected None
      | Error e -> Error e)
    | S.Stream, _ -> connect_stream t sess ~port ~dst connected)

let handle_listen t sess backlog =
  match (sess.kind, sess.lport) with
  | S.Dgram, _ -> Error "listen on datagram socket"
  | S.Stream, None -> Error "listen before bind"
  | S.Stream, Some port ->
    let listener = Psd_tcp.Tcp.listen (Netstack.tcp t.stack) ~port ~backlog () in
    let accept = Psd_sim.Cond.create (eng t) in
    Psd_tcp.Tcp.on_ready listener (fun () ->
        Psd_sim.Cond.broadcast accept;
        Psd_sim.Cond.broadcast t.select_cond);
    sess.location <- In_server (Listener { listener; accept });
    (* the wildcard filter brings handshake traffic to the server *)
    if t.migrate then
      install_session_filter t sess ~sink:(Netstack.sink t.stack);
    Ok ()

(* An acceptor blocked on a listener that is closed under it (by
   [close], or by its task's exit) wakes and fails instead of holding
   its IPC worker forever. *)
let close_listener t sess listener accept =
  sess.closing <- true;
  Psd_tcp.Tcp.close_listener (Netstack.tcp t.stack) listener;
  Psd_sim.Cond.broadcast accept

let handle_accept t sess =
  match sess.location with
  | In_server (Listener { listener; accept }) -> (
    match
      Psd_sim.Cond.until accept (fun () ->
          if sess.closing then Some None
          else Option.map Option.some (Psd_tcp.Tcp.accept_ready listener))
    with
    | None -> Error "bad descriptor"
    | Some pcb ->
      let remote = Psd_tcp.Tcp.remote pcb in
      let sess' =
        add_session t ~kind:S.Stream ~app:sess.app ~lport:sess.lport
          ~remote:(Some remote)
      in
      let sid' = sess'.sid in
      let local = (Netstack.addr t.stack, Option.get sess.lport) in
      let m_tcb =
        if t.migrate then begin
          let snap = Psd_tcp.Tcp.export pcb in
          settle_in_app t sess';
          Some snap
        end
        else begin
          sess'.location <-
            In_server
              (serve_stream t sess' (fun h ->
                   Psd_tcp.Tcp.set_handlers pcb h;
                   pcb));
          None
        end
      in
      Ok (sid', remote, { S.m_local = local; m_tcb }))
  | _ -> Error "accept on non-listening session"

let import_to_server t sess snap =
  serve_stream t sess (fun handlers ->
      Psd_tcp.Tcp.import (Netstack.tcp t.stack) ~handlers snap)

let handle_return t sess tcb =
  match (sess.kind, tcb, sess.lport) with
  | S.Stream, Some snap, _ ->
    settle_in_server t sess (import_to_server t sess snap);
    Psd_sim.Cond.broadcast t.select_cond;
    Ok ()
  | S.Stream, None, _ -> Error "return without protocol state"
  | S.Dgram, _, None -> Error "return of unbound datagram session"
  | S.Dgram, _, Some port -> (
    match serve_dgram t sess port with
    | Ok r ->
      settle_in_server t sess r;
      Ok ()
    | Error e -> Error e)

let handle_close t sess tcb =
  if sess.refs > 1 then begin
    (* another descriptor (fork duplicate) still names the session *)
    sess.refs <- sess.refs - 1;
    (* a closer that held the live state brings it home, so the
       surviving descriptor can keep using it *)
    Option.iter
      (fun snap -> settle_in_server t sess (import_to_server t sess snap))
      tcb
  end
  else begin
    sess.closing <- true;
    match (sess.location, tcb) with
    | In_app, Some snap ->
      (* a stream migrates home, then runs the full shutdown protocol here *)
      install_session_filter t sess ~sink:(Netstack.sink t.stack);
      t.migrations <- t.migrations + 1;
      let pcb_ref = ref None in
      let handlers = wire_drain_handlers t sess pcb_ref in
      let pcb = Psd_tcp.Tcp.import (Netstack.tcp t.stack) ~handlers snap in
      pcb_ref := Some pcb;
      sess.location <- Embryonic;
      Psd_tcp.Tcp.shutdown_send pcb
    | In_server (Stream { pcb; _ }), _ ->
      (* the session dies when TCP does (the [on_state] hook) *)
      Psd_tcp.Tcp.shutdown_send pcb;
      if Psd_tcp.Tcp.state pcb = Psd_tcp.Tcp.Closed then destroy_session t sess
    | In_server (Listener { listener; accept }), _ ->
      close_listener t sess listener accept;
      destroy_session t sess
    | In_server (Dgram { pcb; _ }), _ ->
      Psd_udp.Udp.close (Netstack.udp t.stack) pcb;
      destroy_session t sess
    | (Embryonic | In_app), _ -> destroy_session t sess
  end;
  Ok ()

let charge_entry t =
  let ctx = sctx t in
  let plat = ctx.Ctx.plat in
  Ctx.charge ctx Phase.Entry_copyin
    (plat.Platform.socket_layer + plat.Platform.mbuf_alloc + ctx.Ctx.sync_ns)

let handle_send t sess data dst =
  match sess.location with
  | In_server (Stream { pcb; acked; _ }) when Psd_tcp.Tcp.can_send pcb ->
    charge_entry t;
    (* send-buffer backpressure: chunk large writes *)
    let len = String.length data in
    let rec push off =
      if off >= len then Ok ()
      else begin
        let space =
          Psd_sim.Cond.until acked (fun () ->
              if Psd_tcp.Tcp.state pcb = Psd_tcp.Tcp.Closed then Some 0
              else
                let sp = S.snd_hiwat - Psd_tcp.Tcp.sndq_length pcb in
                if sp > 0 then Some sp else None)
        in
        if space = 0 || not (Psd_tcp.Tcp.can_send pcb) then
          Error "connection closed"
        else begin
          let n = Int.min space (len - off) in
          (* the server's socket layer performs the RPC's fourth copy:
             message data into mbufs *)
          Psd_util.Copies.count Psd_util.Copies.Tx_copyin n;
          Psd_tcp.Tcp.send pcb
            (Psd_mbuf.Mbuf.of_bytes (Bytes.unsafe_of_string data) ~off ~len:n);
          push (off + n)
        end
      end
    in
    push 0
  | In_server (Stream _) -> Error "connection closing"
  | In_server (Dgram { pcb; _ }) when Psd_udp.Udp.take_error pcb <> None ->
    Error "connection refused"
  | In_server (Dgram { pcb; _ }) -> (
    charge_entry t;
    Psd_util.Copies.count Psd_util.Copies.Tx_copyin (String.length data);
    match Psd_udp.Udp.send pcb ?dst (Psd_mbuf.Mbuf.of_string data) with
    | Ok () -> Ok ()
    | Error `No_destination -> Error "destination required"
    | Error `No_route -> Error "no route to host"
    | Error `Too_big -> Error "message too long")
  | In_server (Listener _) -> Error "not connected"
  | Embryonic | In_app -> Error "session not resident in server"

(* A data-bearing reply carries its payload through three message
   copies (paper Section 4.3); an EOF carries none. *)
let reply_data data =
  Psd_util.Copies.count Psd_util.Copies.Rx_rpc ~n:3 (3 * String.length data);
  data

let handle_recv t sess max =
  match sess.location with
  | In_server (Stream { pcb; rcv; _ }) -> (
    let ctx = sctx t in
    Ctx.charge ctx Phase.Copyout_exit ctx.Ctx.plat.Platform.socket_layer;
    match Psd_socket.Sockbuf.read rcv ~max with
    | Ok m ->
      let len = Psd_mbuf.Mbuf.length m in
      Psd_tcp.Tcp.user_consumed pcb len;
      Psd_util.Copies.count Psd_util.Copies.Rx_copyout len;
      Ok (reply_data (Psd_mbuf.Mbuf.to_string m), None)
    | Error `Eof -> Ok ("", None)
    | Error (`Error e) -> Error e)
  | In_server (Dgram { dq; _ }) ->
    let (src_ip, src_port), payload = Psd_socket.Dgramq.recv dq in
    Ok (reply_data payload, Some (Psd_ip.Addr.of_int src_ip, src_port))
  | In_server (Listener _) -> Error "not connected"
  | Embryonic | In_app -> Error "session not resident in server"

(* A sid with no session counts as ready, as poll's POLLNVAL does: its
   session was destroyed (its task exited, or it closed), so the wait
   ends and the next call on it answers "bad descriptor". Skipping it
   would hold the IPC worker serving this call for good. *)
let handle_select t ~sids ~timeout_ns =
  let ready () =
    let rs =
      List.filter
        (fun sid ->
          match Hashtbl.find_opt t.sessions sid with
          | Some s -> readiness s
          | None -> true)
        sids
    in
    if rs = [] then None else Some rs
  in
  match timeout_ns with
  | None -> Psd_sim.Cond.until t.select_cond ready
  | Some dt -> (
    match Psd_sim.Cond.until_timeout t.select_cond dt ready with
    | Some rs -> rs
    | None -> [])

let handle_arp t ip =
  match Psd_arp.Cache.lookup t.arp_master ip with
  | Some _ as hit -> hit
  | None -> (
    match Netstack.arp_resolver t.stack with
    | None -> None
    | Some r ->
      let result = ref None and done_ = ref false in
      let cond = Psd_sim.Cond.create (eng t) in
      Psd_arp.Resolver.resolve r ip (fun res ->
          result := res;
          done_ := true;
          Psd_sim.Cond.broadcast cond);
      Psd_sim.Cond.until cond (fun () -> if !done_ then Some () else None);
      !result)

let handle_op : type a. t -> session -> a S.op -> (a, string) result =
 fun t sess -> function
  | S.Bind { port } -> handle_bind t sess port
  | S.Connect { dst } -> handle_connect t sess dst
  | S.Listen { backlog } -> handle_listen t sess backlog
  | S.Accept -> handle_accept t sess
  | S.Return { tcb } -> handle_return t sess tcb
  | S.Close { tcb } -> handle_close t sess tcb
  | S.Status { readable } ->
    sess.app_readable <- readable;
    Psd_sim.Cond.broadcast t.select_cond;
    Ok ()
  | S.Send { data; dst } -> handle_send t sess data dst
  | S.Recv { max } -> handle_recv t sess max
  | S.Shutdown -> (
    match sess.location with
    | In_server (Stream { pcb; _ }) ->
      Psd_tcp.Tcp.shutdown_send pcb;
      Ok ()
    | _ -> Error "shutdown on non-stream or migrated session")
  | S.Dup ->
    sess.refs <- sess.refs + 1;
    Ok ()

let handle : type a. t -> a S.req -> a =
 fun t req ->
  (* every server entry pays its socket-layer bookkeeping *)
  let ctx = sctx t in
  Ctx.charge ctx Phase.Control ctx.Ctx.plat.Platform.socket_layer;
  match req with
  | S.Socket { kind; app } -> handle_socket t ~kind ~app_id:app
  | S.Select { sids; timeout_ns } -> handle_select t ~sids ~timeout_ns
  | S.Arp ip -> handle_arp t ip
  | S.Session (sid, op) -> (
    match Hashtbl.find_opt t.sessions sid with
    | Some sess -> handle_op t sess op
    | None -> Error "bad descriptor")

(* The reply to a receive is sized by the data it carries, through
   three message copies; an error or EOF is a 32-byte control reply. *)
let recv_reply_bytes = function
  | Ok (data, _) -> (3 * String.length data) + 32
  | Error _ -> 32

(* Every call is one message on the server's port, sized by what it
   carries: a send's request its payload (three message copies, paper
   Section 4.3), a receive's reply its data; anything else is a 64-byte
   control message. *)
let call : type a. t -> ctx:Ctx.t -> phase:Phase.t -> a S.req -> a =
 fun t ~ctx ~phase req ->
  let job () = handle t req in
  match req with
  | S.Session (_, S.Send { data; _ }) ->
    Psd_mach.Ipc.call t.rpc ~ctx ~phase
      ~req_bytes:((3 * String.length data) + 32)
      job
  | S.Session (_, S.Recv _) ->
    Psd_mach.Ipc.call t.rpc ~ctx ~phase ~resp_size:recv_reply_bytes job
  | _ -> Psd_mach.Ipc.call t.rpc ~ctx ~phase job

let oneway t ~ctx ~phase req =
  Psd_mach.Ipc.oneway t.rpc ~ctx ~phase (fun () -> ignore (handle t req))

(* An application died: everything its sessions hold in the server is
   released, and its connections are reset. *)
let task_exited t app_id =
  let owned =
    Hashtbl.fold
      (fun _ sess acc -> if sess.app.a_id = app_id then sess :: acc else acc)
      t.sessions []
  in
  List.iter
    (fun sess ->
      (match sess.location with
      | In_server (Stream { pcb; _ }) -> Psd_tcp.Tcp.abort pcb
      | In_server (Listener { listener; accept }) ->
        close_listener t sess listener accept
      | In_server (Dgram { pcb; _ }) ->
        Psd_udp.Udp.close (Netstack.udp t.stack) pcb
      | In_app | Embryonic -> ());
      destroy_session t sess)
    owned;
  Hashtbl.remove t.apps app_id

let create ~host ~netdev ~migrate ~addr ~routes ?rcv_buf ?delack_ns () =
  let eng = Psd_mach.Host.eng host in
  let cpu = Psd_mach.Host.cpu host in
  let plat = Psd_mach.Host.plat host in
  let ctx = Ctx.create ~eng ~cpu ~plat ~role:Ctx.Server_stack in
  let arp_master = Psd_arp.Cache.create eng () in
  (* The server receives packets through a kernel queue with copyout
     into its address space; wakeups amortise over packet trains just as
     for application channels (the paper's server numbers reflect a
     mature, optimised delivery path — Table 4 "kernel copyout"). *)
  let chan =
    Psd_mach.Pktchan.create host ~kind:(Psd_mach.Pktchan.Shm 256)
      ~deliver_fixed:48_000
      ~deliver_per_byte:plat.Platform.kernel_mem_read_per_byte
  in
  let stack =
    Netstack.create ~ctx ~netdev ~addr ~routes ~arp:Netstack.Arp_authoritative
      ~arp_cache:arp_master ~input:(Netstack.Chan chan) ?rcv_buf ?delack_ns
      ()
  in
  let t =
    {
      host;
      migrate;
      netdev;
      stack;
      tcp_ports = Portalloc.create ();
      udp_ports = Portalloc.create ();
      arp_master;
      sessions = Hashtbl.create 32;
      apps = Hashtbl.create 8;
      rpc = Psd_mach.Ipc.create_port host;
      select_cond = Psd_sim.Cond.create eng;
      next_sid = 1;
      next_app = 1;
      migrations = 0;
    }
  in
  (* standing filters: ARP always; all IP when the server runs the whole
     data path (Server placement). When sessions migrate, the same
     catch-all sits below every session filter: exceptional packets —
     segments for unknown ports, ICMP — fall through to the operating
     system. *)
  let (_ : Psd_mach.Netdev.filter_id) =
    Psd_mach.Netdev.attach netdev ~prio:50 (Flat Psd_bpf.Filter.arp_flat)
      ~sink:(Netstack.sink stack)
  in
  let (_ : Psd_mach.Netdev.filter_id) =
    Psd_mach.Netdev.attach netdev
      ~prio:(if migrate then 200 else 100)
      (Flat Psd_bpf.Filter.ip_all_flat) ~sink:(Netstack.sink stack)
  in
  (* ICMP port-unreachables for sessions that migrated to applications
     are forwarded, one kernel message each, into the application
     library's UDP, which marks its PCBs connected to that peer *)
  (match Netstack.icmp stack with
  | Some icmp ->
    Psd_ip.Icmp.on_unreachable icmp
      (fun ~orig_dst ~orig_proto ~orig_dst_port ->
        if orig_proto = Psd_ip.Header.proto_udp then
          Hashtbl.iter
            (fun _ sess ->
              match (sess.kind, sess.location, sess.remote, sess.app.a_library) with
              | S.Dgram, In_app, Some (ip, port), Some lib
                when Psd_ip.Addr.equal ip orig_dst && port = orig_dst_port
                ->
                Ctx.charge (sctx t) Phase.Control
                  plat.Platform.ipc_msg;
                Psd_udp.Udp.notify_unreachable (Netstack.udp lib)
                  ~dst:orig_dst ~port:orig_dst_port
              | _ -> ())
            t.sessions)
  | None -> ());
  t

let register_app t ~task ~library =
  let a = { a_id = t.next_app; a_library = library } in
  t.next_app <- t.next_app + 1;
  Hashtbl.replace t.apps a.a_id a;
  Psd_mach.Task.on_exit task (fun () ->
      Psd_sim.Engine.spawn (eng t) ~name:"task-exit-cleanup" (fun () ->
          task_exited t a.a_id));
  a
