open Psd_cost
module S = Session

type app_ref = { a_id : int; a_library : Netstack.t option }

(* A session the server names. Its [location] is what the server's own
   stack holds for it; while it lives in its application ([Elsewhere])
   only the name and filter are held here. *)
type session = {
  sid : S.sid;
  kind : S.kind;
  app : app_ref;
  mutable lport : int option;
  mutable claimed : bool; (* [lport] came from the server's namespace *)
  mutable remote : S.endpoint option;
  mutable location : Resident.t;
  mutable filter : Psd_mach.Netdev.filter_id option;
  mutable app_readable : bool;
  mutable refs : int; (* descriptors naming this session (fork dups) *)
}

(* The owner token of a connection or datagram PCB the server serves. *)
exception Sess of session

let layer =
  Resident.layer
    ~state_of:(function Sess sess -> sess.location | _ -> Unplaced)
    ~place:(fun o r -> match o with Sess sess -> sess.location <- r | _ -> ())
    ~reported:ignore

type t = {
  host : Psd_mach.Host.t;
  migrate : bool; (* sessions move into applications (Library placement) *)
  netdev : Psd_mach.Netdev.t;
  keeper : Resident.keeper;
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

let stack t = Resident.stack t.keeper

let sctx t = Netstack.ctx (stack t)

let arp_master t = t.arp_master

let sessions_active t = Hashtbl.length t.sessions

let migrations t = t.migrations

let app_id a = a.a_id

(* ---------------------------------------------------------------- *)
(* filters                                                            *)

let bpf_proto = function S.Stream -> Psd_bpf.Filter.Tcp | S.Dgram -> Psd_bpf.Filter.Udp

let drop_session_filter t sess =
  Option.iter (Psd_mach.Netdev.detach t.netdev) sess.filter;
  sess.filter <- None

let install_session_filter t sess ~sink =
  drop_session_filter t sess;
  match sess.lport with
  | None -> ()
  | Some lport ->
    let spec =
      {
        Psd_bpf.Filter.proto = bpf_proto sess.kind;
        local_ip = Psd_ip.Addr.to_int (Netstack.addr (stack t));
        local_port = lport;
        remote_ip =
          Option.map (fun (ip, _) -> Psd_ip.Addr.to_int ip) sess.remote;
        remote_port = Option.map snd sess.remote;
      }
    in
    let prio = if sess.remote <> None then 5 else 20 in
    let m = Psd_mach.Netdev.Flat (Psd_bpf.Filter.flat_of_spec spec) in
    sess.filter <- Some (Psd_mach.Netdev.attach t.netdev ~prio m ~sink)

(* ---------------------------------------------------------------- *)
(* session bookkeeping                                                *)

let ports_of t = function
  | S.Stream -> t.tcp_ports
  | S.Dgram -> t.udp_ports

(* A session dies once: a wound-down stream may end after its task's
   exit already destroyed it. *)
let destroy_session t sess =
  if Hashtbl.mem t.sessions sess.sid then begin
    drop_session_filter t sess;
    Option.iter
      (Resident.release_port (ports_of t sess.kind) ~claimed:sess.claimed)
      sess.lport;
    Hashtbl.remove t.sessions sess.sid;
    Psd_sim.Cond.broadcast t.select_cond
  end

(* A datagram session the server's stack serves, connected to its peer
   if it has one. *)
let bind_here t sess port =
  Resident.bind_udp t.keeper ~owner:(Sess sess) ~port ~peer:sess.remote

(* The server winds down a connection the application closed; the
   session dies when TCP does. *)
let wind_down t sess =
  Resident.wind_down t.keeper ~ended:(fun () -> destroy_session t sess)

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
      claimed = false;
      remote;
      location = Unplaced;
      filter = None;
      app_readable = false;
      refs = 1;
    }
  in
  Hashtbl.replace t.sessions sid sess;
  sess

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
  | Elsewhere -> ()
  | Unplaced | Stream _ | Listening _ | Message _ ->
    t.migrations <- t.migrations + 1);
  sess.location <- Elsewhere

(* A session migrating back home, which the server's stack now serves;
   a stream brings its connection along. *)
let settle_in_server t sess snap =
  Option.iter
    (fun snap -> ignore (Resident.import t.keeper ~owner:(Sess sess) snap))
    snap;
  install_session_filter t sess ~sink:(Netstack.sink (stack t));
  t.migrations <- t.migrations + 1

let claim t sess port =
  Portalloc.claim (ports_of t sess.kind) port
  |> Result.map (fun p ->
         sess.lport <- Some p;
         sess.claimed <- true;
         p)

let handle_bind t sess port =
  match claim t sess port with
  | Error e -> Error e
  | Ok port -> (
    let bound = Ok (Netstack.addr (stack t), port) in
    match (sess.kind, t.migrate) with
    | S.Dgram, true ->
      (* the UDP session migrates to the application at bind time *)
      settle_in_app t sess;
      bound
    | S.Dgram, false -> Result.bind (bind_here t sess port) (fun () -> bound)
    | S.Stream, _ ->
      (* only the endpoint name is fixed at bind time for TCP *)
      bound)

(* Establishment is always performed by the operating system: packets
   for the nascent connection come to the server stack. Its stream
   claims no data until the handshake is over, so a session that
   migrates takes what arrived along undelivered. *)
let connect_stream t sess ~port ~dst connected =
  install_session_filter t sess ~sink:(Netstack.sink (stack t));
  let st = Resident.connect t.keeper ~owner:(Sess sess) ~src_port:port dst in
  match Resident.wait_established st with
  | Error e ->
    destroy_session t sess;
    Error e
  | Ok () when t.migrate ->
    (* the export quenches this stack: segments racing the filter
       switch draw no RSTs *)
    let snap = Psd_tcp.Tcp.export st.pcb in
    settle_in_app t sess;
    connected (Some snap)
  | Ok () ->
    Resident.claim st;
    connected None

let handle_connect t sess dst =
  sess.remote <- Some dst;
  let port =
    match sess.lport with Some p -> Ok p | None -> claim t sess None
  in
  match port with
  | Error e -> Error e
  | Ok port -> (
    let connected m_tcb =
      Ok { S.m_local = (Netstack.addr (stack t), port); m_tcb }
    in
    match (sess.kind, sess.location) with
    | S.Dgram, Message m ->
      (* a datagram session the server serves (Server placement, or
         returned by fork) is connected where it lives *)
      Psd_udp.Udp.connect m.udp (fst dst) (snd dst);
      install_session_filter t sess ~sink:(Netstack.sink (stack t));
      connected None
    | S.Dgram, _ when t.migrate ->
      settle_in_app t sess;
      connected None
    | S.Dgram, _ ->
      Result.bind (bind_here t sess port) (fun () -> connected None)
    | S.Stream, _ -> connect_stream t sess ~port ~dst connected)

let handle_listen t sess backlog =
  match (sess.kind, sess.lport) with
  | S.Dgram, _ -> Error "listen on datagram socket"
  | S.Stream, None -> Error "listen before bind"
  | S.Stream, Some port ->
    Resident.listen t.keeper ~owner:(Sess sess) ~port ~backlog;
    (* the wildcard filter brings handshake traffic to the server *)
    if t.migrate then
      install_session_filter t sess ~sink:(Netstack.sink (stack t));
    Ok ()

(* An acceptor blocked on a listener that is closed under it (by
   [close], or by its task's exit) wakes and fails instead of holding
   its IPC worker forever. An accepted stream names its listener's port
   but claims none. *)
let handle_accept t sess =
  match sess.location with
  | Listening l -> (
    match Resident.accept l with
    | None -> Error "bad descriptor"
    | Some pcb ->
      let remote = Psd_tcp.Tcp.remote pcb in
      let sess' =
        add_session t ~kind:S.Stream ~app:sess.app ~lport:sess.lport
          ~remote:(Some remote)
      in
      let local = (Netstack.addr (stack t), Option.get sess.lport) in
      let m_tcb =
        if t.migrate then begin
          let snap = Psd_tcp.Tcp.export pcb in
          settle_in_app t sess';
          Some snap
        end
        else begin
          ignore (Resident.serve t.keeper ~owner:(Sess sess') pcb);
          None
        end
      in
      Ok (sess'.sid, remote, { S.m_local = local; m_tcb }))
  | Unplaced | Elsewhere | Stream _ | Message _ ->
    Error "accept on non-listening session"

let handle_return t sess tcb =
  match (sess.kind, tcb, sess.lport) with
  | S.Stream, (Some _ as snap), _ ->
    settle_in_server t sess snap;
    Psd_sim.Cond.broadcast t.select_cond;
    Ok ()
  | S.Stream, None, _ -> Error "return without protocol state"
  | S.Dgram, _, None -> Error "return of unbound datagram session"
  | S.Dgram, _, Some port ->
    bind_here t sess port |> Result.map (fun () -> settle_in_server t sess None)

let handle_close t sess tcb =
  if sess.refs > 1 then begin
    (* another descriptor (fork duplicate) still names the session *)
    sess.refs <- sess.refs - 1;
    (* a closer that held the live state brings it home, so the
       surviving descriptor can keep using it *)
    if Option.is_some tcb then settle_in_server t sess tcb
  end
  else begin
    match (sess.location, tcb) with
    | Elsewhere, Some snap ->
      (* a stream migrates home, then runs the full shutdown protocol here *)
      install_session_filter t sess ~sink:(Netstack.sink (stack t));
      t.migrations <- t.migrations + 1;
      sess.location <- Unplaced;
      let handlers = wind_down t sess in
      Psd_tcp.Tcp.shutdown_send
        (Psd_tcp.Tcp.import (Netstack.tcp (stack t)) ~handlers snap)
    | Stream st, _ when Psd_tcp.Tcp.state st.pcb = Psd_tcp.Tcp.Closed ->
      destroy_session t sess
    | Stream st, _ ->
      sess.location <- Unplaced;
      Psd_tcp.Tcp.set_handlers st.pcb (wind_down t sess);
      Psd_tcp.Tcp.shutdown_send st.pcb
    | ((Listening _ | Message _) as r), _ ->
      Resident.close r;
      destroy_session t sess
    | (Unplaced | Elsewhere), _ -> destroy_session t sess
  end;
  Ok ()

let charge_entry t =
  let ctx = sctx t in
  let plat = ctx.Ctx.plat in
  Ctx.charge ctx Phase.Entry_copyin
    (plat.Platform.socket_layer + plat.Platform.mbuf_alloc + ctx.Ctx.sync_ns)

(* The server's socket layer takes the RPC's data in with the fourth
   copy: message data into mbufs (its keeper copies in). *)
let handle_send t sess data dst =
  let len = String.length data and data = Bytes.unsafe_of_string data in
  match sess.location with
  | Stream st ->
    charge_entry t;
    Resident.send st data ~len ~block:true |> Result.map ignore
  | Message m ->
    charge_entry t;
    Resident.send_dgram m ~dst data ~len
  | Listening _ -> Error "not connected"
  | Unplaced | Elsewhere -> Error "session not resident in server"

(* A data-bearing reply carries its payload through three message
   copies (paper Section 4.3); an EOF carries none. *)
let reply_data data =
  Psd_util.Copies.count Psd_util.Copies.Rx_rpc ~n:3 (3 * String.length data);
  data

let handle_recv t sess max =
  match sess.location with
  | Stream st -> (
    let ctx = sctx t in
    Ctx.charge ctx Phase.Copyout_exit ctx.Ctx.plat.Platform.socket_layer;
    match Resident.read st ~max with
    | Ok m ->
      Resident.consumed st (Psd_mbuf.Mbuf.length m);
      Ok (reply_data (Resident.copy_out m), None)
    | Error `Eof -> Ok ("", None)
    | Error (`Error e) -> Error e)
  | Message m ->
    let data, src = Resident.recv_dgram m ~max in
    Ok (reply_data data, Some src)
  | Listening _ -> Error "not connected"
  | Unplaced | Elsewhere -> Error "session not resident in server"

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
          | Some { location = Elsewhere; app_readable; _ } -> app_readable
          | Some s -> Resident.readable s.location
          | None -> true)
        sids
    in
    if rs = [] then None else Some rs
  in
  match timeout_ns with
  | None -> Psd_sim.Cond.until t.select_cond ready
  | Some dt ->
    Option.value ~default:[] (Psd_sim.Cond.until_timeout t.select_cond dt ready)

let handle_arp t ip =
  match Psd_arp.Cache.lookup t.arp_master ip with
  | Some _ as hit -> hit
  | None -> (
    match Netstack.arp_resolver (stack t) with
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
    | Stream _ as r -> Ok (Resident.close r)
    | Unplaced | Elsewhere | Listening _ | Message _ ->
      Error "shutdown on non-stream or migrated session")
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
      Resident.abort sess.location;
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
  (* the server's stack is in its own address space: send data is
     copied in from the RPC message, and datagrams are cooked *)
  let select_cond = Psd_sim.Cond.create eng in
  let keeper =
    Resident.keeper layer ~stack ~changed:select_cond ~copy_in:true
      ~loans:false
  in
  let t =
    {
      host;
      migrate;
      netdev;
      keeper;
      tcp_ports = Portalloc.create ();
      udp_ports = Portalloc.create ();
      arp_master;
      sessions = Hashtbl.create 32;
      apps = Hashtbl.create 8;
      rpc = Psd_mach.Ipc.create_port host;
      select_cond;
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
              | S.Dgram, Elsewhere, Some (ip, port), Some lib
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
