open Psd_core
module Cfg = Psd_cost.Config

let ( => ) name b = Alcotest.(check bool) name true b

let all_configs =
  [
    Cfg.mach25_kernel;
    Cfg.ultrix_kernel;
    Cfg.bsd386_kernel;
    Cfg.ux_server;
    Cfg.bnr2ss_server;
    Cfg.library_ipc;
    Cfg.library_shm;
    Cfg.library_shm_ipf;
    Cfg.library_newapi_ipc;
    Cfg.library_newapi_shm;
    Cfg.library_newapi_shm_ipf;
    Cfg.offload;
    Cfg.offload_serial;
  ]

type pair = {
  eng : Psd_sim.Engine.t;
  seg : Psd_link.Segment.t;
  sys_a : System.t;
  sys_b : System.t;
}

let make_pair ?(config = Cfg.library_shm_ipf) ?(seed = 3) () =
  let eng = Psd_sim.Engine.create ~seed () in
  let seg = Psd_link.Segment.create eng () in
  let sys_a =
    System.create ~eng ~segment:seg ~config ~addr:"10.0.0.1" ~name:"alpha" ()
  in
  let sys_b =
    System.create ~eng ~segment:seg ~config ~addr:"10.0.0.2" ~name:"beta" ()
  in
  { eng; seg; sys_a; sys_b }

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name e

(* run an echo server on sys_b accepting [n] connections *)
let spawn_echo_server p ?(port = 7) ?(n = 1) () =
  let app = System.app p.sys_b ~name:"echo-server" in
  Psd_sim.Engine.spawn p.eng ~name:"echo-server" (fun () ->
      let s = Sockets.stream app in
      let (_ : int) = ok "bind" (Sockets.bind s ~port ()) in
      ok "listen" (Sockets.listen s ());
      for _ = 1 to n do
        let c = ok "accept" (Sockets.accept s) in
        Psd_sim.Engine.spawn p.eng ~name:"echo-conn" (fun () ->
            let rec loop () =
              match Sockets.recv c ~max:65536 with
              | Ok "" -> Sockets.close c
              | Ok data ->
                let (_ : int) = ok "echo send" (Sockets.send c data) in
                loop ()
              | Error _ -> Sockets.close c
            in
            loop ())
      done);
  app

let dst_b = Psd_ip.Addr.of_string "10.0.0.2"

(* --- every configuration carries data end to end ---------------------- *)

let test_tcp_echo_all_configs () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let (_ : Sockets.app) = spawn_echo_server p () in
      let done_ = ref false in
      let client = System.app p.sys_a ~name:"client" in
      Psd_sim.Engine.spawn p.eng ~name:"client" (fun () ->
          let s = Sockets.stream client in
          ok "connect" (Sockets.connect s dst_b 7);
          let msg = "hello through " ^ config.Cfg.label in
          let (_ : int) = ok "send" (Sockets.send s msg) in
          let rec read_all acc =
            if String.length acc >= String.length msg then acc
            else
              match Sockets.recv s ~max:4096 with
              | Ok "" -> acc
              | Ok d -> read_all (acc ^ d)
              | Error e -> Alcotest.failf "recv: %s" e
          in
          let echoed = read_all "" in
          Alcotest.(check string) ("echo " ^ config.Cfg.label) msg echoed;
          Sockets.close s;
          done_ := true);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 20);
      if not !done_ then Alcotest.failf "%s: did not finish" config.Cfg.label)
    all_configs

let test_udp_roundtrip_all_configs () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let server = System.app p.sys_b ~name:"udp-server" in
      Psd_sim.Engine.spawn p.eng ~name:"udp-server" (fun () ->
          let s = Sockets.dgram server in
          let (_ : int) = ok "bind" (Sockets.bind s ~port:9 ()) in
          match Sockets.recvfrom s ~max:65536 with
          | Ok (data, Some (ip, pt)) ->
            let (_ : int) =
              ok "reply" (Sockets.send s ~dst:(ip, pt) ("re:" ^ data))
            in
            ()
          | Ok (_, None) -> Alcotest.fail "no source address"
          | Error e -> Alcotest.failf "server recv: %s" e);
      let got = ref "" in
      let client = System.app p.sys_a ~name:"udp-client" in
      Psd_sim.Engine.spawn p.eng ~name:"udp-client" (fun () ->
          let s = Sockets.dgram client in
          let (_ : int) = ok "bind" (Sockets.bind s ()) in
          let (_ : int) = ok "send" (Sockets.send s ~dst:(dst_b, 9) "ping") in
          match Sockets.recv s ~max:4096 with
          | Ok d -> got := d
          | Error e -> Alcotest.failf "client recv: %s" e);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 20);
      Alcotest.(check string) ("udp " ^ config.Cfg.label) "re:ping" !got)
    all_configs

(* A stream socket closed before it ever connected gives its port back:
   one that was only bound, one bound and then refused, and one refused
   on an ephemeral port (where the application can see which). The port
   is free again when a fresh socket can bind it by number. *)
let test_fresh_close_releases_port () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let client = System.app p.sys_a ~name:"client" in
      let rebound = ref [] in
      let rebind port =
        let s = Sockets.stream client in
        rebound := (port, Result.is_ok (Sockets.bind s ~port ())) :: !rebound;
        Sockets.close s
      in
      let refused s =
        match Sockets.connect s dst_b 9999 with
        | Ok () -> Alcotest.fail "connect to a closed port succeeded"
        | Error _ -> ()
      in
      Psd_sim.Engine.spawn p.eng ~name:"client" (fun () ->
          let s = Sockets.stream client in
          let (_ : int) = ok "bind" (Sockets.bind s ~port:5001 ()) in
          Sockets.close s;
          rebind 5001;
          let s = Sockets.stream client in
          let (_ : int) = ok "bind" (Sockets.bind s ~port:5002 ()) in
          refused s;
          Sockets.close s;
          rebind 5002;
          let s = Sockets.stream client in
          refused s;
          let ephemeral = Sockets.local_endpoint s in
          Sockets.close s;
          Option.iter (fun (_, port) -> rebind port) ephemeral);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 20);
      let rebound = List.rev !rebound in
      Alcotest.(check bool)
        (config.Cfg.label ^ ": both named ports tried")
        true
        (List.length rebound >= 2);
      Alcotest.(check (list (pair int bool)))
        (config.Cfg.label ^ ": ports free again")
        (List.map (fun (port, _) -> (port, true)) rebound)
        rebound)
    all_configs

(* --- migration observables -------------------------------------------- *)

let test_library_sessions_migrate () =
  let p = make_pair ~config:Cfg.library_shm () in
  let (_ : Sockets.app) = spawn_echo_server p () in
  let loc = ref Sockets.Loc_none in
  let client = System.app p.sys_a ~name:"client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      loc := Sockets.location s;
      let (_ : int) = ok "send" (Sockets.send s "x") in
      ignore (Sockets.recv s ~max:10);
      Sockets.close s);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  "client session was library-resident" => (!loc = Sockets.Loc_library);
  (match System.server p.sys_a with
  | Some srv ->
    (* connect migrated out; close migrated back *)
    "migrations happened" => (Os_server.migrations srv >= 2)
  | None -> Alcotest.fail "no server");
  match System.server p.sys_b with
  | Some srv ->
    "server-side migrations (accept out, close back)"
    => (Os_server.migrations srv >= 2)
  | None -> Alcotest.fail "no server"

(* A datagram session moves into its application once, whether its
   first naming call is [connect] or [bind]; a [connect] after [bind]
   finds it there already. *)
let test_dgram_connect_migrates_once () =
  List.iter
    (fun (label, bind_first) ->
      let p = make_pair ~config:Cfg.library_shm_ipf () in
      let app = System.app p.sys_a ~name:"client" in
      Psd_sim.Engine.spawn p.eng (fun () ->
          let s = Sockets.dgram app in
          if bind_first then ignore (ok "bind" (Sockets.bind s ()));
          ok "connect" (Sockets.connect s dst_b 9));
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 1);
      match System.server p.sys_a with
      | Some srv -> Alcotest.(check int) label 1 (Os_server.migrations srv)
      | None -> Alcotest.fail "no server")
    [ ("connect alone", false); ("bind, then connect", true) ]

(* A datagram socket that fork returned to the server is connected
   there: the server connects its own PCB in place, so the connect is
   no migration, data flows through the server, and closing every
   descriptor frees the port in the server's stack as well. *)
let test_forked_dgram_connects () =
  let p = make_pair ~config:Cfg.library_shm () in
  let peer = System.app p.sys_b ~name:"udp-echo" in
  Psd_sim.Engine.spawn p.eng ~name:"udp-echo" (fun () ->
      let s = Sockets.dgram peer in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:9 ()) in
      match Sockets.recvfrom s ~max:4096 with
      | Ok (data, Some src) ->
        let (_ : int) = ok "echo" (Sockets.send s ~dst:src data) in
        ()
      | Ok (_, None) -> Alcotest.fail "no source address"
      | Error e -> Alcotest.failf "echo recv: %s" e);
  let srv = Option.get (System.server p.sys_a) in
  let parent = System.app p.sys_a ~name:"parent" in
  let connect_moves = ref (-1) and echoed = ref "" and rebound = ref None in
  Psd_sim.Engine.spawn p.eng ~name:"parent" (fun () ->
      let s = Sockets.dgram parent in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:5000 ()) in
      let child = Sockets.fork parent ~name:"child" in
      let before = Os_server.migrations srv in
      ok "connect" (Sockets.connect s dst_b 9);
      connect_moves := Os_server.migrations srv - before;
      let (_ : int) = ok "send" (Sockets.send s "hello") in
      echoed := ok "recv" (Sockets.recv s ~max:4096);
      Sockets.close s;
      List.iter Sockets.close (Sockets.fork_inherited child);
      let other = System.app p.sys_a ~name:"other" in
      rebound := Some (Sockets.bind (Sockets.dgram other) ~port:5000 ()));
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check int) "connect is no migration" 0 !connect_moves;
  Alcotest.(check string) "datagram echoed" "hello" !echoed;
  Alcotest.(check (option (result int string)))
    "port free after close" (Some (Ok 5000)) !rebound

let test_server_sessions_stay () =
  let p = make_pair ~config:Cfg.ux_server () in
  let (_ : Sockets.app) = spawn_echo_server p () in
  let loc = ref Sockets.Loc_none in
  let client = System.app p.sys_a ~name:"client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      loc := Sockets.location s;
      Sockets.close s);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  "server placement keeps sessions" => (!loc = Sockets.Loc_server);
  match System.server p.sys_a with
  | Some srv -> Alcotest.(check int) "no migrations" 0 (Os_server.migrations srv)
  | None -> Alcotest.fail "no server"

let test_data_before_accept_survives_migration () =
  (* Client connects and immediately sends; the server app accepts only
     later. The data accumulated in the listening stack must arrive via
     the migration snapshot. *)
  let p = make_pair ~config:Cfg.library_shm_ipf () in
  let server_app = System.app p.sys_b ~name:"slow-server" in
  let got = ref "" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream server_app in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:7 ()) in
      ok "listen" (Sockets.listen s ());
      (* deliberately late accept *)
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 300);
      let c = ok "accept" (Sockets.accept s) in
      match Sockets.recv c ~max:4096 with
      | Ok d -> got := d
      | Error e -> Alcotest.failf "recv: %s" e);
  let client = System.app p.sys_a ~name:"eager-client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      let (_ : int) = ok "send" (Sockets.send s "early-bird") in
      ());
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  Alcotest.(check string) "pre-accept data" "early-bird" !got

(* A NEWAPI owned send still queued at [close]: [close] gives the
   buffer back (the completion fires with [~all]), so the caller may
   overwrite it at once, here from the completion itself, and the peer
   must still receive the bytes as they were sent. Under a Library
   placement the session migrates home and the exported send queue
   holds its own copy; under Offload it stays in the NIC's stack, whose
   queue [close] copies before it fires the completion. *)
let owned_buffer_survives_close config () =
  let p = make_pair ~config () in
  let len = 36 * 1024 (* a 24 KB receive window plus half a send buffer *) in
  let original = String.init len (fun i -> Char.chr ((i * 7) mod 251)) in
  let buf = Bytes.of_string original in
  let server_app = System.app p.sys_b ~name:"late-reader" in
  let got = Buffer.create len in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let l = Sockets.stream server_app in
      let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      let c = ok "accept" (Sockets.accept l) in
      (* read nothing until the client has closed *)
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 500);
      let rec drain () =
        match Sockets.recv c ~max:65536 with
        | Ok "" -> ()
        | Ok d ->
          Buffer.add_string got d;
          drain ()
        | Error e -> Alcotest.failf "recv: %s" e
      in
      drain ());
  let completed = ref 0 in
  let client = System.app p.sys_a ~name:"owner" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      let (_ : int) =
        ok "send_owned"
          (Sockets.send_owned s buf ~completion:(fun () ->
               incr completed;
               Bytes.fill buf 0 len 'X'))
      in
      Alcotest.(check int) "still queued at close" 0 !completed;
      Sockets.close s;
      Alcotest.(check int) "close returns the buffer" 1 !completed);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  Alcotest.(check int) "all bytes" len (Buffer.length got);
  "original bytes" => String.equal original (Buffer.contents got)

(* --- broadcast ARP --------------------------------------------------- *)

(* A who-has for an address no host owns, from a sender no host has
   cached, heard by [n] Mach 2.5 in-kernel hosts: each takes the receive
   interrupt, queues the frame for its netisr, and the netisr drops it.
   Returns the minor words allocated per receiving host and the frames
   each host's netisr took in. *)
let who_has_words_per_host ~n ~rounds =
  let eng = Psd_sim.Engine.create ~seed:3 () in
  let seg = Psd_link.Segment.create eng () in
  let hosts =
    List.init n (fun i ->
        System.create ~eng ~segment:seg ~config:Cfg.mach25_kernel
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ~name:(Printf.sprintf "h%d" i) ())
  in
  let src_mac = Psd_link.Macaddr.of_host_id 200 in
  let raw = Psd_link.Segment.attach seg ~mac:src_mac in
  let payload =
    Psd_arp.Packet.encode
      {
        Psd_arp.Packet.op = Psd_arp.Packet.Request;
        sender_mac = src_mac;
        sender_ip = Psd_ip.Addr.of_string "10.0.0.200";
        target_mac = Psd_link.Macaddr.of_string "\x00\x00\x00\x00\x00\x00";
        target_ip = Psd_ip.Addr.of_string "10.0.0.250";
      }
  in
  let hs = Psd_link.Frame.header_size in
  let frame = Bytes.make (hs + Bytes.length payload) '\x00' in
  Psd_link.Frame.set_header frame ~off:0 ~dst:Psd_link.Macaddr.broadcast
    ~src:src_mac ~ethertype:Psd_link.Frame.ethertype_arp;
  Bytes.blit payload 0 frame hs (Bytes.length payload);
  let once () =
    Psd_link.Segment.transmit raw frame;
    Psd_sim.Engine.run_for eng (Psd_sim.Time.ms 1)
  in
  (* warm-up: the first frame grows each netisr queue *)
  once ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    once ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (n * rounds) in
  let frames_in =
    List.map
      (fun h ->
        match System.kernel_stack h with
        | Some s -> Netstack.frames_in s
        | None -> -1)
      hosts
  in
  (words, frames_in)

(* Measured 46.8 words per host (the frame's wire copy, the interrupt's
   event and record, the netisr queue cell and wake); the same run with
   an effect fiber for the interrupt's sink and another for the netisr,
   and the request decoded into a record, measured 56.8. *)
let who_has_words_bound = 50.

let test_who_has_allocation_guard () =
  let n = 32 and rounds = 20 in
  let words, frames_in = who_has_words_per_host ~n ~rounds in
  Alcotest.(check (list int)) "every netisr counts every frame"
    (List.init n (fun _ -> rounds + 1))
    frames_in;
  if words > who_has_words_bound then
    Alcotest.failf "who-has allocation regression: %.1f minor words per host"
      words

(* --- fork -------------------------------------------------------------- *)

let test_fork_returns_sessions () =
  let p = make_pair ~config:Cfg.library_shm () in
  let (_ : Sockets.app) = spawn_echo_server p () in
  let before_fork = ref Sockets.Loc_none in
  let after_fork = ref Sockets.Loc_none in
  let echoed = ref "" in
  let client = System.app p.sys_a ~name:"parent" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      before_fork := Sockets.location s;
      let (_ : Sockets.app) = Sockets.fork client ~name:"child" in
      after_fork := Sockets.location s;
      (* data operations are now routed through the server *)
      let (_ : int) = ok "send after fork" (Sockets.send s "post-fork") in
      (match Sockets.recv s ~max:4096 with
      | Ok d -> echoed := d
      | Error e -> Alcotest.failf "recv: %s" e);
      Sockets.close s);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  "was in library" => (!before_fork = Sockets.Loc_library);
  "returned to server" => (!after_fork = Sockets.Loc_server);
  Alcotest.(check string) "data still flows" "post-fork" !echoed

(* A peer on sys_b that accepts one connection and runs [k] on it. *)
let spawn_acceptor p k =
  let app = System.app p.sys_b ~name:"acceptor" in
  Psd_sim.Engine.spawn p.eng ~name:"acceptor" (fun () ->
      let l = Sockets.stream app in
      let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      k app (ok "accept" (Sockets.accept l)))

(* Fork after data (or the peer's FIN) has reached the library but
   before the application read it: the returned session carries what
   was unread, so the server's [recv] answers with it rather than
   blocking for good. *)
let fork_after_arrival peer_does =
  let p = make_pair ~config:Cfg.library_shm () in
  spawn_acceptor p (fun _ c -> peer_does c);
  let got = ref None in
  let client = System.app p.sys_a ~name:"parent" in
  Psd_sim.Engine.spawn p.eng ~name:"parent" (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
      let (_ : Sockets.app) = Sockets.fork client ~name:"child" in
      "returned to server" => (Sockets.location s = Sockets.Loc_server);
      got := Some (Sockets.recv s ~max:4096));
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  !got

let test_fork_keeps_unread_bytes () =
  Alcotest.(check (option (result string string)))
    "unread bytes survive fork" (Some (Ok "unread!!"))
    (fork_after_arrival (fun c ->
         ignore (ok "peer send" (Sockets.send c "unread!!") : int)))

let test_fork_keeps_delivered_fin () =
  Alcotest.(check (option (result string string)))
    "delivered FIN survives fork" (Some (Ok ""))
    (fork_after_arrival (fun c -> Sockets.close c))

(* A datagram the library had queued when fork returned its session is
   dropped with the library's queue: the returned socket is not ready
   until the server's own queue holds one. *)
let test_fork_drops_queued_datagrams () =
  let p = make_pair ~config:Cfg.library_shm () in
  let peer = System.app p.sys_b ~name:"udp-peer" in
  let dst = (Psd_ip.Addr.of_string "10.0.0.1", 5000) in
  Psd_sim.Engine.spawn p.eng ~name:"udp-peer" (fun () ->
      let s = Sockets.dgram peer in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:9 ()) in
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 50);
      ignore (ok "early" (Sockets.send s ~dst "early") : int);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 500);
      ignore (ok "late" (Sockets.send s ~dst "late") : int));
  let ready = ref (-1) and got = ref None in
  let client = System.app p.sys_a ~name:"parent" in
  Psd_sim.Engine.spawn p.eng ~name:"parent" (fun () ->
      let s = Sockets.dgram client in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:5000 ()) in
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 200);
      let (_ : Sockets.app) = Sockets.fork client ~name:"child" in
      ready :=
        List.length (Sockets.select ~timeout_ns:(Psd_sim.Time.ms 100) [ s ]);
      got := Some (Sockets.recv s ~max:4096));
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check int) "not ready from the dropped queue" 0 !ready;
  Alcotest.(check (option (result string string)))
    "the server serves later datagrams" (Some (Ok "late")) !got

(* --- select ------------------------------------------------------------- *)

let test_select_timeout () =
  let p = make_pair ~config:Cfg.library_shm () in
  let client = System.app p.sys_a ~name:"selector" in
  let result = ref [ 1 ] in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram client in
      let (_ : int) = ok "bind" (Sockets.bind s ()) in
      let ready = Sockets.select ~timeout_ns:(Psd_sim.Time.ms 50) [ s ] in
      result := List.map (fun _ -> 0) ready);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check (list int)) "timeout -> empty" [] !result

let test_select_wakes_on_local_data () =
  (* Library placement: data arrives in the application's own stack; the
     proxy_status notification must wake the server-side select. *)
  let p = make_pair ~config:Cfg.library_shm () in
  let server_app = System.app p.sys_b ~name:"udp-peer" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram server_app in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:9 ()) in
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
      let (_ : int) =
        ok "send"
          (Sockets.send s ~dst:(Psd_ip.Addr.of_string "10.0.0.1", 5000) "wake")
      in
      ());
  let woke = ref false in
  let client = System.app p.sys_a ~name:"selector" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram client in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:5000 ()) in
      let ready = Sockets.select [ s ] in
      woke := ready <> [];
      match Sockets.recv s ~max:100 with
      | Ok "wake" -> ()
      | _ -> Alcotest.fail "wrong datagram");
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  "select woke on datagram" => !woke

(* --- exceptional conditions --------------------------------------------- *)

let test_task_exit_aborts_connections () =
  let p = make_pair ~config:Cfg.library_shm () in
  let server_sessions_after = ref (-1) in
  let (_ : Sockets.app) = spawn_echo_server p () in
  let client = System.app p.sys_a ~name:"dying-client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 50);
      (* process dies without closing *)
      Sockets.exit client;
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.sec 1);
      match System.server p.sys_a with
      | Some srv -> server_sessions_after := Os_server.sessions_active srv
      | None -> ());
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  Alcotest.(check int) "naming state cleaned" 0 !server_sessions_after

(* Server placement: when an application dies, the server releases what
   each kind of session holds in its stack: the listener, the accepted
   stream (reset, so the peer hears of it) and the bound UDP PCB, and
   both ports can be bound and used again. *)
let test_server_task_exit_cleanup () =
  let p = make_pair ~config:Cfg.ux_server () in
  let holder = System.app p.sys_a ~name:"holder" in
  Psd_sim.Engine.spawn p.eng ~name:"holder" (fun () ->
      let l = Sockets.stream holder in
      let (_ : int) = ok "bind 7" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      let u = Sockets.dgram holder in
      let (_ : int) = ok "bind 9" (Sockets.bind u ~port:9 ()) in
      let (_ : Sockets.t) = ok "accept" (Sockets.accept l) in
      Sockets.exit holder);
  let peer = System.app p.sys_b ~name:"peer" in
  let peer_read = ref None in
  Psd_sim.Engine.spawn p.eng ~name:"peer" (fun () ->
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
      let s = Sockets.stream peer in
      ok "connect" (Sockets.connect s (Psd_ip.Addr.of_string "10.0.0.1") 7);
      peer_read := Some (Sockets.recv s ~max:10));
  let srv = Option.get (System.server p.sys_a) in
  let active = ref (-1) and rebound = ref [] in
  Psd_sim.Engine.spawn p.eng ~name:"successor" (fun () ->
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.sec 1);
      active := Os_server.sessions_active srv;
      let app = System.app p.sys_a ~name:"successor" in
      let l = Sockets.stream app in
      let bound_7 =
        Result.bind (Sockets.bind l ~port:7 ()) (fun _ -> Sockets.listen l ())
      in
      let bound_9 = Sockets.bind (Sockets.dgram app) ~port:9 () in
      rebound := [ ("7", Result.is_ok bound_7); ("9", Result.is_ok bound_9) ]);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check (option (result string string)))
    "peer reset" (Some (Error "connection reset by peer")) !peer_read;
  Alcotest.(check int) "no sessions left" 0 !active;
  Alcotest.(check (list (pair string bool)))
    "ports free" [ ("7", true); ("9", true) ] !rebound

(* A task that dies while blocked in accept: the server closes the
   listener and the blocked call fails, in both placements whose
   listeners live in the server. Left blocked, each such call would
   hold one of the server's IPC workers for good. *)
let test_exit_wakes_blocked_acceptor () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let app = System.app p.sys_a ~name:"dier" in
      let accepted = ref None in
      Psd_sim.Engine.spawn p.eng ~name:"dier" (fun () ->
          let l = Sockets.stream app in
          let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
          ok "listen" (Sockets.listen l ());
          Psd_sim.Engine.spawn p.eng ~name:"acceptor" (fun () ->
              accepted :=
                Some (Result.map (fun _ -> ()) (Sockets.accept l)));
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
          Sockets.exit app);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 1);
      Alcotest.(check (option (result unit string)))
        config.Cfg.label (Some (Error "bad descriptor")) !accepted)
    [ Cfg.ux_server; Cfg.library_shm ]

(* More tasks than the server has IPC workers (16) die while blocked
   in a select with no timeout. Each select must end when its task's
   sessions go: it reports the vanished listener ready, and the next
   call on it answers "bad descriptor". Left blocked, the selects would
   hold every worker, and a later application's socket() would never
   be answered. *)
let test_exit_ends_blocked_select () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let dying = 17 in
      let after_select = ref [] and late = ref None in
      for i = 1 to dying do
        let app = System.app p.sys_a ~name:(Printf.sprintf "dier%d" i) in
        Psd_sim.Engine.spawn p.eng ~name:"dier" (fun () ->
            let l = Sockets.stream app in
            let (_ : int) = ok "bind" (Sockets.bind l ~port:(7000 + i) ()) in
            ok "listen" (Sockets.listen l ());
            Psd_sim.Engine.spawn p.eng ~name:"selector" (fun () ->
                let ready = List.length (Sockets.select [ l ]) in
                let next = Result.map (fun _ -> ()) (Sockets.accept l) in
                after_select := (ready, next) :: !after_select);
            Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
            Sockets.exit app)
      done;
      Psd_sim.Engine.spawn p.eng ~name:"late" (fun () ->
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.sec 1);
          let app = System.app p.sys_a ~name:"late" in
          late := Some (Result.map (fun _ -> ()) (Sockets.try_stream app)));
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
      Alcotest.(check (option (result unit string)))
        (config.Cfg.label ^ ": late socket answered") (Some (Ok ())) !late;
      Alcotest.(check (list (pair int (result unit string))))
        (config.Cfg.label ^ ": selects ended")
        (List.init dying (fun _ -> (1, Error "bad descriptor")))
        !after_select)
    [ Cfg.ux_server; Cfg.library_shm ]

let test_socket_creation_error_text_survives () =
  (* Socket creation from an exited application: the operating-system
     server rejects the request, and the error text of its typed reply
     must reach the caller verbatim through [try_stream]/[try_dgram] —
     or as the payload of the [Failure] the convenience constructors
     raise. *)
  let p = make_pair ~config:Cfg.library_shm () in
  let checked = ref false in
  let app = System.app p.sys_a ~name:"ghost" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      Sockets.exit app;
      (match Sockets.try_stream app with
      | Error e ->
        Alcotest.(check string) "stream error text" "unknown application" e
      | Ok _ -> Alcotest.fail "stream socket granted to exited app");
      (match Sockets.try_dgram app with
      | Error e ->
        Alcotest.(check string) "dgram error text" "unknown application" e
      | Ok _ -> Alcotest.fail "dgram socket granted to exited app");
      (match Sockets.stream app with
      | exception Failure msg ->
        Alcotest.(check string) "convenience keeps cause"
          "socket: unknown application" msg
      | _ -> Alcotest.fail "stream did not raise for exited app");
      checked := true);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  "error-path checks ran" => !checked

let test_connect_refused () =
  let p = make_pair ~config:Cfg.library_shm () in
  let result = ref (Ok ()) in
  let client = System.app p.sys_a ~name:"client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      result := Sockets.connect s dst_b 4444);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  (match !result with
  | Error e -> Alcotest.(check string) "refused" "connection refused" e
  | Ok () -> Alcotest.fail "connect succeeded to closed port")

let test_port_conflict_across_apps () =
  (* Two applications on one host: the server's port namespace must make
     the second bind fail even though the stacks are separate. *)
  let p = make_pair ~config:Cfg.library_shm () in
  let app1 = System.app p.sys_b ~name:"app1" in
  let app2 = System.app p.sys_b ~name:"app2" in
  let second = ref (Ok 0) in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s1 = Sockets.dgram app1 in
      let (_ : int) = ok "first bind" (Sockets.bind s1 ~port:111 ()) in
      let s2 = Sockets.dgram app2 in
      second := Sockets.bind s2 ~port:111 ());
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  (match !second with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflicting bind accepted")

let test_backpressure_large_transfer () =
  (* 200 KB through the full system exercises window flow control,
     send-buffer blocking, and ordered delivery. *)
  let p = make_pair ~config:Cfg.library_shm_ipf () in
  let payload = String.init 200_000 (fun i -> Char.chr (i * 11 mod 256)) in
  let received = Buffer.create 1024 in
  let server_app = System.app p.sys_b ~name:"sink-server" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream server_app in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:7 ()) in
      ok "listen" (Sockets.listen s ());
      let c = ok "accept" (Sockets.accept s) in
      let rec loop () =
        match Sockets.recv c ~max:32768 with
        | Ok "" -> ()
        | Ok d ->
          Buffer.add_string received d;
          loop ()
        | Error e -> Alcotest.failf "recv: %s" e
      in
      loop ());
  let client = System.app p.sys_a ~name:"pump" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      let (_ : int) = ok "send" (Sockets.send s payload) in
      Sockets.close s);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 60);
  Alcotest.(check int) "all bytes" (String.length payload)
    (Buffer.length received);
  "content intact" => String.equal payload (Buffer.contents received)

let test_arp_metastate_cached () =
  let p = make_pair ~config:Cfg.library_shm () in
  let server_app = System.app p.sys_b ~name:"udp-sink" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram server_app in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:9 ()) in
      for _ = 1 to 3 do
        ignore (Sockets.recv s ~max:100)
      done);
  let client = System.app p.sys_a ~name:"udp-src" in
  let frames_after_first = ref 0 in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram client in
      let (_ : int) = ok "bind" (Sockets.bind s ()) in
      let (_ : int) = ok "send1" (Sockets.send s ~dst:(dst_b, 9) "one") in
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
      frames_after_first := Psd_link.Segment.frames_sent p.seg;
      let (_ : int) = ok "send2" (Sockets.send s ~dst:(dst_b, 9) "two") in
      let (_ : int) = ok "send3" (Sockets.send s ~dst:(dst_b, 9) "three") in
      ());
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  let total = Psd_link.Segment.frames_sent p.seg in
  (* first send cost ARP query+reply+datagram = 3 frames; the next two
     sends must be exactly one frame each (cache hits, no server RPC
     visible on the wire) *)
  Alcotest.(check int) "first send: arp+data" 3 !frames_after_first;
  Alcotest.(check int) "cached sends: data only" 5 total

let test_udp_unreachable_soft_error_kernel () =
  (* connected UDP to a dead port: the kernel's ICMP turns the remote
     port-unreachable into a soft error on the next send *)
  let p = make_pair ~config:Cfg.mach25_kernel () in
  let result = ref (Ok 0) in
  let client = System.app p.sys_a ~name:"udp-client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram client in
      ignore (ok "bind" (Sockets.bind s ()));
      ok "connect" (Sockets.connect s dst_b 4242);
      ignore (ok "first send leaves" (Sockets.send s "into the void"));
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
      result := Sockets.send s "second try");
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  (match !result with
  | Error e -> Alcotest.(check string) "refused" "connection refused" e
  | Ok _ -> Alcotest.fail "soft error not delivered")

(* Same, in the decomposed architecture: the ICMP arrives at the OS
   server (exceptional packet), which forwards it into the application
   library's UDP. Every migrated socket connected to the dead peer reads
   it, and a socket closed before its error arrives leaves none behind
   for a fresh socket on its port; [s5] shares the closed socket's peer,
   so its refusal shows that the second error did arrive. *)
let test_udp_unreachable_soft_error_library () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let r1 = ref (Ok 0) and r2 = ref (Ok 0) in
      let r5 = ref (Ok 0) and fresh = ref (Error "not run") in
      let client = System.app p.sys_a ~name:"udp-client" in
      Psd_sim.Engine.spawn p.eng (fun () ->
          let connected dport =
            let s = Sockets.dgram client in
            let port = ok "bind" (Sockets.bind s ()) in
            ok "connect" (Sockets.connect s dst_b dport);
            (s, port)
          in
          let s1, _ = connected 4242 and s2, _ = connected 4242 in
          ignore (ok "s1 send leaves" (Sockets.send s1 "into the void"));
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
          r1 := Sockets.send s1 "second try";
          r2 := Sockets.send s2 "second try";
          let s3, port3 = connected 4343 and s5, _ = connected 4343 in
          ignore (ok "s3 send leaves" (Sockets.send s3 "into the void"));
          Sockets.close s3;
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
          let s4 = Sockets.dgram client in
          ignore
            (ok "rebind the closed port" (Sockets.bind s4 ~port:port3 ()));
          ok "connect s4" (Sockets.connect s4 dst_b 4343);
          fresh := Sockets.send s4 "fresh";
          r5 := Sockets.send s5 "second try");
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
      let refused = Error "connection refused" in
      let check what =
        Alcotest.(check (result int string)) (config.Cfg.label ^ ": " ^ what)
      in
      check "sender refused" refused !r1;
      check "other connected socket refused" refused !r2;
      check "closed socket's peer refused" refused !r5;
      check "fresh socket on the port" (Ok 5) !fresh)
    [ Cfg.library_shm_ipf; Cfg.library_shm ]

(* A refused datagram hands nothing over: after the forwarded ICMP
   error, a NEWAPI [send_owned] answers "connection refused" and books
   no caller-owned bytes. *)
let test_udp_refused_send_owned_books_nothing () =
  let p = make_pair ~config:Cfg.library_newapi_shm () in
  let result = ref (Ok 0) and owned = ref (-1) in
  let client = System.app p.sys_a ~name:"udp-client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram client in
      ignore (ok "bind" (Sockets.bind s ()));
      ok "connect" (Sockets.connect s dst_b 4242);
      ignore (ok "first send leaves" (Sockets.send s "into the void"));
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 100);
      let before = Psd_util.Copies.copies Psd_util.Copies.Tx_owned in
      result :=
        Sockets.send_owned s (Bytes.of_string "second try")
          ~completion:ignore;
      owned := Psd_util.Copies.copies Psd_util.Copies.Tx_owned - before);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check (result int string)) "refused"
    (Error "connection refused") !result;
  Alcotest.(check int) "no owned transfer booked" 0 !owned

(* A blocking stream send_owned refused by a reset connection hands
   nothing to the stack, so it books no ownership transfer. *)
let test_stream_refused_send_owned_books_nothing () =
  let p = make_pair ~config:Cfg.library_newapi_shm () in
  spawn_acceptor p (fun app _ -> Sockets.exit app);
  let result = ref (Ok 0) and owned = ref (-1) in
  let client = System.app p.sys_a ~name:"client" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 200);
      let before = Psd_util.Copies.copies Psd_util.Copies.Tx_owned in
      result :=
        Sockets.send_owned s (Bytes.make 1000 'x') ~completion:ignore;
      owned := Psd_util.Copies.copies Psd_util.Copies.Tx_owned - before);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  "refused" => Result.is_error !result;
  Alcotest.(check int) "no owned transfer booked" 0 !owned

let test_ping_via_kernel_stacks () =
  let p = make_pair ~config:Cfg.mach25_kernel () in
  let replied = ref false in
  (match System.kernel_stack p.sys_a with
  | Some stack -> (
    match Netstack.icmp stack with
    | Some icmp ->
      Psd_ip.Icmp.on_reply icmp (fun ~src:_ ~id:_ ~seq:_ ~payload:_ ->
          replied := true);
      Psd_sim.Engine.spawn p.eng (fun () ->
          Psd_ip.Icmp.ping icmp ~dst:dst_b ())
    | None -> Alcotest.fail "kernel stack has no icmp")
  | None -> Alcotest.fail "no kernel stack");
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  "echo reply received" => !replied

(* A host's NIC goes to the shard that owns the host's engine: a ping
   between hosts built on shards 0 and 1 of a duplex wire crosses the
   shard layer. A host built on an engine the wire does not know is
   refused. *)
let test_nic_shard_follows_engine () =
  let sh = Psd_sim.Shard.create ~n:2 () in
  let seg = Psd_link.Segment.create_duplex sh () in
  let host eng addr =
    System.create ~eng ~segment:seg ~config:Cfg.mach25_kernel ~addr
      ~name:addr ()
  in
  let a = host (Psd_sim.Shard.engine sh 0) "10.0.0.1" in
  let (_ : System.t) = host (Psd_sim.Shard.engine sh 1) "10.0.0.2" in
  let replied = ref false in
  (match Option.bind (System.kernel_stack a) Netstack.icmp with
  | Some icmp ->
    Psd_ip.Icmp.on_reply icmp (fun ~src:_ ~id:_ ~seq:_ ~payload:_ ->
        replied := true);
    Psd_sim.Engine.spawn (Psd_sim.Shard.engine sh 0) (fun () ->
        Psd_ip.Icmp.ping icmp ~dst:dst_b ())
  | None -> Alcotest.fail "kernel stack has no icmp");
  Psd_sim.Shard.run_for ~domains:false sh (Psd_sim.Time.sec 5);
  "echo reply received" => !replied;
  "frames crossed shards" => (Psd_sim.Shard.posted sh > 0);
  match host (Psd_sim.Engine.create ()) "10.0.0.3" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a host on a foreign engine was attached"

let test_two_apps_concurrent_on_one_host () =
  (* Two applications on one host, each with its own protocol library and
     packet filters, stream concurrently to the same remote server: the
     kernel demultiplexer must keep the flows apart. *)
  let p = make_pair ~config:Cfg.library_shm_ipf () in
  let (_ : Sockets.app) = spawn_echo_server p ~n:2 () in
  let done_count = ref 0 in
  for i = 1 to 2 do
    let app = System.app p.sys_a ~name:(Printf.sprintf "worker%d" i) in
    Psd_sim.Engine.spawn p.eng (fun () ->
        let s = Sockets.stream app in
        ok "connect" (Sockets.connect s dst_b 7);
        let payload =
          String.init 50_000 (fun j -> Char.chr ((j * i * 7) mod 256))
        in
        let (_ : int) = ok "send" (Sockets.send s payload) in
        let rec read_all acc =
          if acc >= String.length payload then acc
          else
            match Sockets.recv s ~max:65536 with
            | Ok "" -> acc
            | Ok d -> read_all (acc + String.length d)
            | Error e -> Alcotest.failf "recv: %s" e
        in
        let n = read_all 0 in
        Alcotest.(check int)
          (Printf.sprintf "worker%d echoed all" i)
          (String.length payload) n;
        Sockets.close s;
        incr done_count)
  done;
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 120);
  Alcotest.(check int) "both finished" 2 !done_count

let test_migration_storm_no_leaks () =
  (* Many short-lived connections: every one migrates out on accept/connect
     and back on close. Afterwards the servers' naming state must be
     exactly the listener session — nothing leaked. *)
  let p = make_pair ~config:Cfg.library_shm () in
  let conns = 12 in
  let (_ : Sockets.app) = spawn_echo_server p ~n:conns () in
  let finished = ref 0 in
  let client = System.app p.sys_a ~name:"storm" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      for i = 1 to conns do
        let s = Sockets.stream client in
        ok "connect" (Sockets.connect s dst_b 7);
        let msg = Printf.sprintf "conn-%d" i in
        let (_ : int) = ok "send" (Sockets.send s msg) in
        (match Sockets.recv s ~max:100 with
        | Ok d when d = msg -> incr finished
        | Ok d -> Alcotest.failf "wrong echo %S" d
        | Error e -> Alcotest.failf "recv: %s" e);
        Sockets.close s
      done);
  (* run past 2MSL so TIME_WAIT states are reaped *)
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 200);
  Alcotest.(check int) "all conversations completed" conns !finished;
  (match System.server p.sys_a with
  | Some srv ->
    Alcotest.(check int) "client host: no leaked sessions" 0
      (Os_server.sessions_active srv);
    "many migrations" => (Os_server.migrations srv >= 2 * conns)
  | None -> Alcotest.fail "no server");
  match System.server p.sys_b with
  | Some srv ->
    Alcotest.(check int) "server host: only the listener remains" 1
      (Os_server.sessions_active srv)
  | None -> Alcotest.fail "no server"

(* --- BSD conformity extras ---------------------------------------------- *)

let test_half_close () =
  (* shutdown(SHUT_WR): our FIN goes out, but we can still receive the
     peer's response afterwards — the classic request/response close. *)
  let p = make_pair ~config:Cfg.library_shm () in
  let server_app = System.app p.sys_b ~name:"responder" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let l = Sockets.stream server_app in
      ignore (ok "bind" (Sockets.bind l ~port:7 ()));
      ok "listen" (Sockets.listen l ());
      let c = ok "accept" (Sockets.accept l) in
      (* read until EOF, then answer *)
      let rec drain acc =
        match Sockets.recv c ~max:4096 with
        | Ok "" -> acc
        | Ok d -> drain (acc ^ d)
        | Error e -> Alcotest.failf "server recv: %s" e
      in
      let request = drain "" in
      ignore (ok "respond" (Sockets.send c ("answer:" ^ request)));
      Sockets.close c);
  let got = ref "" in
  let client = System.app p.sys_a ~name:"asker" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      ignore (ok "send" (Sockets.send s "question"));
      ok "shutdown" (Sockets.shutdown s);
      (match Sockets.recv s ~max:4096 with
      | Ok d -> got := d
      | Error e -> Alcotest.failf "client recv after shutdown: %s" e);
      Sockets.close s);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  Alcotest.(check string) "response after half-close" "answer:question" !got

(* A closed descriptor is dead in every placement: listen, accept and
   shutdown fail with "bad descriptor" before any trap or proxy RPC (no
   Control time is charged), and close wakes a fiber already blocked in
   accept on the socket with the same error instead of leaving it hung. *)
let test_closed_descriptor () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let app = System.app p.sys_a ~name:"closer" in
      let bd = Psd_cost.Breakdown.create () in
      System.set_breakdown p.sys_a (Some bd);
      let calls = ref [] and blocked = ref None in
      Psd_sim.Engine.spawn p.eng ~name:"closer" (fun () ->
          let s = Sockets.stream app in
          let (_ : int) = ok "bind" (Sockets.bind s ~port:7 ()) in
          ok "listen" (Sockets.listen s ());
          Sockets.close s;
          let control () = Psd_cost.Breakdown.total bd Psd_cost.Phase.Control in
          let before = control () in
          let err = function Ok _ -> "ok" | Error e -> e in
          calls :=
            [
              ("listen", err (Sockets.listen s ()));
              ("accept", err (Sockets.accept s));
              ("shutdown", err (Sockets.shutdown s));
            ];
          Alcotest.(check int)
            (config.Cfg.label ^ ": no trap or RPC")
            before (control ());
          let l = Sockets.stream app in
          let (_ : int) = ok "bind" (Sockets.bind l ~port:8 ()) in
          ok "listen" (Sockets.listen l ());
          Psd_sim.Engine.spawn p.eng ~name:"acceptor" (fun () ->
              blocked := Some (err (Sockets.accept l)));
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
          Sockets.close l);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 1);
      Alcotest.(check (list (pair string string)))
        (config.Cfg.label ^ ": calls after close")
        (List.map
           (fun call -> (call, "bad descriptor"))
           [ "listen"; "accept"; "shutdown" ])
        !calls;
      Alcotest.(check (option string))
        (config.Cfg.label ^ ": accept blocked across close")
        (Some "bad descriptor") !blocked)
    all_configs

(* recv on a listening socket has no connection to read from: it fails
   with "not connected" in every placement instead of parking (under
   the Server and Library placements, one of the server's IPC
   workers with it). *)
let test_recv_on_listener () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let app = System.app p.sys_a ~name:"listener" in
      let got = ref None in
      Psd_sim.Engine.spawn p.eng ~name:"listener" (fun () ->
          let s = Sockets.stream app in
          let (_ : int) = ok "bind" (Sockets.bind s ~port:7 ()) in
          ok "listen" (Sockets.listen s ());
          got := Some (Sockets.recv s ~max:10));
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 1);
      Alcotest.(check (option (result string string)))
        config.Cfg.label (Some (Error "not connected")) !got)
    all_configs

(* A socket is bound once (BSD: EINVAL): the second bind fails, and
   once the socket is closed both port numbers can be bound again. *)
let test_second_bind_refused () =
  List.iter
    (fun config ->
      let p = make_pair ~config () in
      let app = System.app p.sys_a ~name:"binder" in
      let results = ref [] in
      Psd_sim.Engine.spawn p.eng ~name:"binder" (fun () ->
          List.iter
            (fun (name, socket) ->
              let s = socket app in
              let (_ : int) = ok "first bind" (Sockets.bind s ~port:5000 ()) in
              let second = Sockets.bind s ~port:5001 () in
              Sockets.close s;
              let rebind port =
                let s = socket app in
                let r = Sockets.bind s ~port () in
                Sockets.close s;
                r
              in
              results :=
                (name, (second, rebind 5000, rebind 5001)) :: !results)
            [ ("stream", Sockets.stream); ("dgram", Sockets.dgram) ]);
      Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 1);
      let expect = (Error "invalid argument", Ok 5000, Ok 5001) in
      Alcotest.(check (list (pair string (triple (result int string) (result int string) (result int string)))))
        config.Cfg.label
        [ ("dgram", expect); ("stream", expect) ]
        !results)
    all_configs

let test_nonblocking_recv_and_accept () =
  let p = make_pair ~config:Cfg.library_shm () in
  let results = ref [] in
  let app = System.app p.sys_a ~name:"nb" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.dgram app in
      ignore (ok "bind" (Sockets.bind s ()));
      Sockets.set_nonblocking s true;
      (match Sockets.recv s ~max:100 with
      | Error e -> results := ("recv", e) :: !results
      | Ok _ -> Alcotest.fail "recv should not succeed");
      let l = Sockets.stream app in
      ignore (ok "bind l" (Sockets.bind l ~port:99 ()));
      ok "listen" (Sockets.listen l ());
      Sockets.set_nonblocking l true;
      match Sockets.accept l with
      | Error e -> results := ("accept", e) :: !results
      | Ok _ -> Alcotest.fail "accept should not succeed");
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check int) "two ewouldblocks" 2 (List.length !results);
  List.iter
    (fun (_, e) ->
      Alcotest.(check string) "ewouldblock" "operation would block" e)
    !results

let test_nonblocking_send_partial () =
  (* a non-blocking sender against a stalled receiver eventually gets a
     partial write, then EWOULDBLOCK — never a hang *)
  let p = make_pair ~config:Cfg.library_shm () in
  let server_app = System.app p.sys_b ~name:"stall" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let l = Sockets.stream server_app in
      ignore (ok "bind" (Sockets.bind l ~port:7 ()));
      ok "listen" (Sockets.listen l ());
      let _c = ok "accept" (Sockets.accept l) in
      (* never reads *)
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.sec 30));
  let saw_partial = ref false and saw_block = ref false in
  let client = System.app p.sys_a ~name:"nb-sender" in
  Psd_sim.Engine.spawn p.eng (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Sockets.set_nonblocking s true;
      let big = String.make 200_000 'z' in
      let rec loop budget =
        if budget > 0 && not !saw_block then begin
          (match Sockets.send s big with
          | Ok n when n < String.length big -> saw_partial := true
          | Ok _ -> ()
          | Error "operation would block" -> saw_block := true
          | Error e -> Alcotest.failf "send: %s" e);
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
          loop (budget - 1)
        end
      in
      loop 50);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 20);
  "partial write happened" => !saw_partial;
  "then would-block" => !saw_block

(* --- port allocator ------------------------------------------------------ *)

let test_portalloc_invariants () =
  let pa = Portalloc.create () in
  (match Portalloc.reserve pa 80 with Ok () -> () | Error _ -> Alcotest.fail "reserve");
  (match Portalloc.reserve pa 80 with
  | Error `In_use -> ()
  | Ok () -> Alcotest.fail "double reserve");
  let e1 = Portalloc.alloc_ephemeral pa in
  let e2 = Portalloc.alloc_ephemeral pa in
  "ephemeral distinct" => (e1 <> e2);
  "ephemeral range" => (e1 >= 1024 && e2 >= 1024);
  Alcotest.(check int) "count" 3 (Portalloc.count pa);
  Portalloc.release pa 80;
  (match Portalloc.reserve pa 80 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reserve after release");
  (* an ephemeral allocation never collides with anything reserved *)
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen 80 ();
  Hashtbl.replace seen e1 ();
  Hashtbl.replace seen e2 ();
  for _ = 1 to 200 do
    let p = Portalloc.alloc_ephemeral pa in
    if Hashtbl.mem seen p then Alcotest.failf "port %d allocated twice" p;
    Hashtbl.replace seen p ()
  done

(* --- lazy receive buffers and hangup hooks ---------------------------- *)

(* Lazy receive-buffer allocation must be invisible: a socket that never
   received a byte and one that received and fully drained behave
   identically — the buffer deflates back to nothing once it holds no
   observable state (no bytes, no loan, no EOF/error) and re-inflates
   on the next byte. Exercised through the NEWAPI loan path, whose
   space/loan accounting is the state a deflate/re-inflate cycle would
   most easily corrupt. *)
let test_lazy_rcv_fresh_vs_drained () =
  let p = make_pair ~config:Cfg.library_newapi_shm_ipf () in
  let app_b = System.app p.sys_b ~name:"lazy-srv" in
  let srv = ref None in
  Psd_sim.Engine.spawn p.eng ~name:"lazy-srv" (fun () ->
      let l = Sockets.stream app_b in
      let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      srv := Some (ok "accept" (Sockets.accept l)));
  let done_ = ref false in
  let client = System.app p.sys_a ~name:"lazy-cli" in
  Psd_sim.Engine.spawn p.eng ~name:"lazy-cli" (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
      "fresh socket not readable" => not (Sockets.readable s);
      let round tag msg =
        (match !srv with
        | Some c -> ignore (ok "srv send" (Sockets.send c msg) : int)
        | None -> Alcotest.fail "no server socket");
        let loan = ok (tag ^ " recv_loan") (Sockets.recv_loan s ~max:4096) in
        Alcotest.(check int)
          (tag ^ " loan length")
          (String.length msg)
          (Sockets.loan_length loan);
        Alcotest.(check string) (tag ^ " loan bytes") msg
          (Psd_mbuf.Mbuf.to_string (Sockets.loan_view loan));
        Sockets.return_loan s loan;
        (try
           Sockets.return_loan s loan;
           Alcotest.fail (tag ^ ": double return accepted")
         with Invalid_argument _ -> ());
        (tag ^ ": drained socket not readable") => not (Sockets.readable s)
      in
      (* first round inflates the buffer; returning the loan drains it
         back to nothing *)
      round "fresh" "written-once";
      (* second round must see exactly the fresh behavior again *)
      round "drained" "written-twice-longer";
      (match !srv with Some c -> Sockets.close c | None -> ());
      (* EOF lands on a drained (deflated) buffer and re-inflates it *)
      let eof_loan = ok "eof recv_loan" (Sockets.recv_loan s ~max:4096) in
      Alcotest.(check int) "eof loan is empty" 0 (Sockets.loan_length eof_loan);
      Sockets.return_loan s eof_loan;
      Sockets.close s;
      done_ := true);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  "finished" => !done_

(* Same drill through the classic copying API: recv on a never-written
   socket and on a written-then-drained socket must be
   indistinguishable, EOF included. *)
let test_lazy_rcv_classic_recv () =
  let p = make_pair ~config:Cfg.mach25_kernel () in
  let app_b = System.app p.sys_b ~name:"lazy2-srv" in
  let srv = ref None in
  Psd_sim.Engine.spawn p.eng ~name:"lazy2-srv" (fun () ->
      let l = Sockets.stream app_b in
      let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      srv := Some (ok "accept" (Sockets.accept l)));
  let done_ = ref false in
  let client = System.app p.sys_a ~name:"lazy2-cli" in
  Psd_sim.Engine.spawn p.eng ~name:"lazy2-cli" (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
      "fresh not readable" => not (Sockets.readable s);
      List.iter
        (fun msg ->
          (match !srv with
          | Some c -> ignore (ok "srv send" (Sockets.send c msg) : int)
          | None -> Alcotest.fail "no server socket");
          let rec read_all acc =
            if String.length acc >= String.length msg then acc
            else
              match Sockets.recv s ~max:4096 with
              | Ok "" -> acc
              | Ok d -> read_all (acc ^ d)
              | Error e -> Alcotest.failf "recv: %s" e
          in
          Alcotest.(check string) "echo" msg (read_all "");
          "drained not readable" => not (Sockets.readable s))
        [ "alpha"; "beta-longer"; "gamma" ];
      (match !srv with Some c -> Sockets.close c | None -> ());
      (match Sockets.recv s ~max:4096 with
      | Ok "" -> ()
      | Ok d -> Alcotest.failf "expected EOF, got %S" d
      | Error e -> Alcotest.failf "expected EOF, got error %s" e);
      Sockets.close s;
      done_ := true);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 10);
  "finished" => !done_

(* [Sockets.on_hangup]: the hook fires once when the peer's FIN
   arrives, and immediately when registered on a connection that
   already hung up. *)
let test_on_hangup_hook () =
  let p = make_pair ~config:Cfg.mach25_kernel () in
  let app_b = System.app p.sys_b ~name:"hup-srv" in
  let fired = ref 0 in
  Psd_sim.Engine.spawn p.eng ~name:"hup-srv" (fun () ->
      let l = Sockets.stream app_b in
      let (_ : int) = ok "bind" (Sockets.bind l ~port:7 ()) in
      ok "listen" (Sockets.listen l ());
      (* connection 1: hook registered while the peer is still open *)
      let c1 = ok "accept" (Sockets.accept l) in
      Sockets.on_hangup c1 (fun () ->
          incr fired;
          Sockets.close c1);
      (* connection 2: hook registered long after the FIN arrived *)
      let c2 = ok "accept" (Sockets.accept l) in
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 200);
      Sockets.on_hangup c2 (fun () ->
          incr fired;
          Sockets.close c2));
  let client = System.app p.sys_a ~name:"hup-cli" in
  Psd_sim.Engine.spawn p.eng ~name:"hup-cli" (fun () ->
      let s1 = Sockets.stream client in
      ok "connect1" (Sockets.connect s1 dst_b 7);
      let s2 = Sockets.stream client in
      ok "connect2" (Sockets.connect s2 dst_b 7);
      Sockets.close s2;
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 500);
      Sockets.close s1);
  Psd_sim.Engine.run_for p.eng (Psd_sim.Time.sec 5);
  Alcotest.(check int) "both hooks fired exactly once" 2 !fired

(* --- the socket boundary, pinned per placement ------------------------ *)

(* One client's worth of socket-boundary crossings under [config]: a
   connect, classic send/recv of 1 B and 4 KB through a TCP echo, the
   NEWAPI calls (send_owned, recv_loan, return_loan) where the session
   is local, close, then one UDP echo through send/recvfrom (plus the
   NEWAPI datagram calls where local) and its close. Returns the
   client host's virtual ns in the four boundary phases, the virtual
   time the client finished at, and the [Copies] count of every site
   (both hosts). *)
let boundary_phases =
  Psd_cost.Phase.[ Entry_copyin; Copyout_exit; Control; Desc_crossing ]

let boundary_run ~plat config =
  Psd_util.Copies.reset ();
  let eng = Psd_sim.Engine.create ~seed:3 () in
  let seg = Psd_link.Segment.create eng () in
  let sys_a =
    System.create ~eng ~segment:seg ~config ~plat ~addr:"10.0.0.1"
      ~name:"alpha" ()
  in
  let sys_b =
    System.create ~eng ~segment:seg ~config ~plat ~addr:"10.0.0.2"
      ~name:"beta" ()
  in
  let p = { eng; seg; sys_a; sys_b } in
  let (_ : Sockets.app) = spawn_echo_server p () in
  let udp_srv = System.app sys_b ~name:"udp-echo" in
  Psd_sim.Engine.spawn eng ~name:"udp-echo" (fun () ->
      let s = Sockets.dgram udp_srv in
      let (_ : int) = ok "udp bind" (Sockets.bind s ~port:9 ()) in
      let rec loop () =
        match Sockets.recvfrom s ~max:65536 with
        | Ok (d, Some src) ->
          let (_ : int) = ok "udp echo" (Sockets.send s ~dst:src d) in
          loop ()
        | _ -> ()
      in
      loop ());
  let finished = ref (-1) in
  let client = System.app sys_a ~name:"boundary" in
  let bd = Psd_cost.Breakdown.create () in
  System.set_breakdown sys_a (Some bd);
  Psd_sim.Engine.spawn eng ~name:"boundary" (fun () ->
      let s = Sockets.stream client in
      ok "connect" (Sockets.connect s dst_b 7);
      let rec read_all acc n =
        if String.length acc >= n then acc
        else
          match Sockets.recv s ~max:4096 with
          | Ok "" -> acc
          | Ok d -> read_all (acc ^ d) n
          | Error e -> Alcotest.failf "recv: %s" e
      in
      List.iter
        (fun msg ->
          let (_ : int) = ok "send" (Sockets.send s msg) in
          Alcotest.(check string) "echo" msg (read_all "" (String.length msg)))
        [ "x"; String.make 4096 'a' ];
      let local = Sockets.location s <> Sockets.Loc_server in
      let completed = ref 0 in
      if local then begin
        let buf = Bytes.make 4096 'b' in
        let (_ : int) =
          ok "send_owned"
            (Sockets.send_owned s buf ~completion:(fun () -> incr completed))
        in
        let rec loans got =
          if got < 4096 then begin
            let l = ok "recv_loan" (Sockets.recv_loan s ~max:4096) in
            let n = Sockets.loan_length l in
            Sockets.return_loan s l;
            if n > 0 then loans (got + n)
          end
        in
        loans 0
      end;
      Sockets.close s;
      let u = Sockets.dgram client in
      let (_ : int) = ok "udp bind" (Sockets.bind u ()) in
      let (_ : int) = ok "udp send" (Sockets.send u ~dst:(dst_b, 9) "ping") in
      (match Sockets.recvfrom u ~max:64 with
      | Ok ("ping", Some _) -> ()
      | Ok (d, _) -> Alcotest.failf "udp echo: %S" d
      | Error e -> Alcotest.failf "udp recvfrom: %s" e);
      if Sockets.location u <> Sockets.Loc_server then begin
        let (_ : int) =
          ok "udp send_owned"
            (Sockets.send_owned u ~dst:(dst_b, 9) (Bytes.of_string "pong")
               ~completion:(fun () -> incr completed))
        in
        let l = ok "udp recv_loan" (Sockets.recv_loan u ~max:64) in
        Alcotest.(check string) "udp loan" "pong"
          (Psd_mbuf.Mbuf.to_string (Sockets.loan_view l));
        Sockets.return_loan u l
      end;
      Sockets.close u;
      Alcotest.(check int) "completions"
        (if local then 2 else 0)
        !completed;
      finished := Psd_sim.Engine.now eng);
  Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 10);
  if !finished < 0 then
    Alcotest.failf "%s: client did not finish" config.Cfg.label;
  ( List.map (Psd_cost.Breakdown.total bd) boundary_phases,
    !finished,
    List.map Psd_util.Copies.copies Psd_util.Copies.all_sites )

(* (machine, row): [Entry_copyin; Copyout_exit; Control; Desc_crossing]
   ns, finish ns, and copies per site in [Copies.all_sites] order. *)
let boundary_table =
  [
    ( ("dec", "Mach 2.5 In-Kernel"),
      ([ 866070; 839570; 652000; 0 ], 33003850,
       [ 14; 0; 27; 0; 31; 31; 0; 0; 0; 15; 0; 0; 0 ]) );
    ( ("dec", "Ultrix 4.2A In-Kernel"),
      ([ 872910; 839570; 652000; 0 ], 33660462,
       [ 14; 0; 27; 0; 31; 31; 0; 0; 0; 15; 0; 0; 0 ]) );
    ( ("dec", "Mach 3.0+UX Server"),
      ([ 2339490; 2733870; 2446520; 0 ], 33138442,
       [ 8; 0; 19; 24; 23; 23; 0; 23; 0; 10; 30; 0; 0 ]) );
    ( ("dec", "Mach 3.0+UX Library-IPC"),
      ([ 1172318; 1177326; 2510120; 0 ], 44437350,
       [ 0; 0; 27; 0; 31; 31; 42; 10; 0; 15; 0; 0; 2 ]) );
    ( ("dec", "Mach 3.0+UX Library-SHM"),
      ([ 1172318; 1177326; 2510120; 0 ], 42363078,
       [ 0; 0; 27; 0; 31; 31; 0; 31; 0; 15; 0; 0; 2 ]) );
    ( ("dec", "Mach 3.0+UX Library-SHM-IPF"),
      ([ 1172318; 1177326; 2510120; 0 ], 40871848,
       [ 0; 0; 27; 0; 31; 0; 0; 31; 0; 15; 0; 0; 2 ]) );
    ( ("gw", "Mach 2.5 In-Kernel"),
      ([ 1166440; 1170990; 884000; 0 ], 62185360,
       [ 14; 0; 29; 0; 33; 33; 0; 0; 0; 15; 0; 0; 0 ]) );
    ( ("gw", "386BSD In-Kernel"),
      ([ 1092015; 1170990; 884000; 0 ], 67323529,
       [ 14; 0; 29; 0; 33; 33; 0; 0; 0; 15; 0; 0; 0 ]) );
    ( ("gw", "Mach 3.0+UX Server"),
      ([ 2725590; 3272220; 3090020; 0 ], 52637300,
       [ 8; 0; 19; 24; 23; 23; 0; 23; 0; 10; 30; 0; 0 ]) );
    ( ("gw", "Mach 3.0+BNR2SS Server"),
      ([ 2711655; 3232440; 2950790; 0 ], 52017156,
       [ 8; 0; 19; 24; 23; 23; 0; 23; 0; 10; 30; 0; 0 ]) );
    ( ("gw", "Mach 3.0+UX Library-IPC"),
      ([ 1089730; 1101010; 3172700; 0 ], 70508440,
       [ 0; 0; 29; 0; 33; 33; 46; 10; 0; 15; 0; 0; 2 ]) );
    ( ("gw", "Mach 3.0+UX Library-SHM"),
      ([ 1089730; 1101010; 3172700; 0 ], 77856480,
       [ 0; 0; 27; 0; 31; 31; 0; 31; 0; 15; 0; 0; 2 ]) );
    ( ("dec", "Mach 3.0+UX Library-NEWAPI-IPC"),
      ([ 140000; 144000; 2510120; 0 ], 41042028,
       [ 0; 0; 27; 0; 31; 31; 21; 10; 0; 14; 0; 21; 2 ]) );
    ( ("dec", "Mach 3.0+UX Library-NEWAPI-SHM"),
      ([ 140000; 144000; 2510120; 0 ], 38785716,
       [ 0; 0; 27; 0; 31; 31; 0; 10; 0; 14; 0; 21; 2 ]) );
    ( ("dec", "Mach 3.0+UX Library-NEWAPI-SHM-IPF"),
      ([ 140000; 144000; 2510120; 0 ], 37294360,
       [ 0; 0; 27; 0; 31; 0; 0; 10; 0; 14; 0; 21; 2 ]) );
    ( ("dec", "Smart-NIC Offload"),
      ([ 30000; 81000; 620000; 88000 ], 51726019,
       [ 0; 0; 27; 0; 31; 0; 0; 0; 0; 14; 0; 4; 2 ]) );
  ]

let test_boundary_pinned () =
  let rows =
    List.map (fun c -> ("dec", Psd_cost.Platform.decstation, c))
      Cfg.decstation_rows
    @ List.map (fun c -> ("gw", Psd_cost.Platform.gateway486, c))
        Cfg.gateway_rows
    @ List.map (fun c -> ("dec", Psd_cost.Platform.decstation, c))
        (Cfg.newapi_rows @ [ Cfg.offload ])
  in
  let ints l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]" in
  let changed =
    List.filter_map
      (fun (machine, plat, config) ->
        let phases, finish, copies = boundary_run ~plat config in
        let key = (machine, config.Cfg.label) in
        if List.assoc_opt key boundary_table = Some (phases, finish, copies)
        then None
        else
          Some
            (Printf.sprintf "    ((%S, %S), (%s, %d, %s));" machine
               config.Cfg.label (ints phases) finish (ints copies)))
      rows
  in
  if changed <> [] then
    Alcotest.failf "socket boundary changed; got:@.%s"
      (String.concat "\n" changed)

(* --- hostile frames into every placement -------------------------------- *)

(* One frame from a raw NIC on the target's segment. [Junk] is arbitrary
   bytes behind an IP or ARP ethertype. [Packet] is an IPv4 packet with
   a valid header checksum and arbitrary protocol, fragment fields and
   body; an aimed TCP or UDP body is addressed to the target's bound
   port with a valid transport checksum, so it reaches the protocol's
   input instead of dying at the checksum. *)
type hostile =
  | Junk of { arp : bool; bytes : string }
  | Packet of {
      from_peer : bool;  (** source is the other host, else arbitrary *)
      proto : int;
      ident : int;
      ttl : int;
      dont_frag : bool;
      more_frags : bool;
      frag_off : int;
      total_len : int option;  (** [None]: header plus body *)
      aim : bool;
      body : string;
    }

let print_hostile = function
  | Junk { arp; bytes } ->
    Printf.sprintf "Junk { arp = %b; bytes = %S }" arp bytes
  | Packet p ->
    Printf.sprintf
      "Packet { from_peer = %b; proto = %d; ident = %d; ttl = %d; \
       dont_frag = %b; more_frags = %b; frag_off = %d; total_len = %s; \
       aim = %b; body = %S }"
      p.from_peer p.proto p.ident p.ttl p.dont_frag p.more_frags p.frag_off
      (match p.total_len with
      | None -> "None"
      | Some n -> Printf.sprintf "Some %d" n)
      p.aim p.body

let hostile_gen =
  let open QCheck.Gen in
  let junk =
    map2 (fun arp bytes -> Junk { arp; bytes }) bool (string_size (0 -- 120))
  in
  let packet =
    let* from_peer = bool in
    let* proto = oneof [ oneofl [ 1; 6; 17 ]; int_bound 255 ] in
    let* ident = frequency [ (3, int_bound 3); (1, int_bound 0xffff) ] in
    let* ttl = int_bound 255 in
    let* dont_frag = bool in
    let* more_frags = frequency [ (3, return false); (1, return true) ] in
    let* frag_off =
      frequency [ (3, return 0); (1, map (fun n -> n * 8) (int_bound 8191)) ]
    in
    let* total_len =
      frequency [ (4, return None); (1, map Option.some (int_bound 0xffff)) ]
    in
    let* aim = bool in
    let* body = string_size (0 -- 160) in
    return
      (Packet
         { from_peer; proto; ident; ttl; dont_frag; more_frags; frag_off;
           total_len; aim; body })
  in
  frequency [ (1, junk); (2, packet) ]

let hostile_udp_port = 9

let hostile_tcp_port = 80

(* The wire bytes of [h], from [src_mac] to the target [p.sys_b]. *)
let hostile_frame p ~src_mac h =
  let dst_mac = Psd_mach.Netdev.mac (System.netdev p.sys_b) in
  let frame ethertype payload =
    let hs = Psd_link.Frame.header_size and n = Bytes.length payload in
    let b = Bytes.make (hs + n) '\x00' in
    Psd_link.Frame.set_header b ~off:0 ~dst:dst_mac ~src:src_mac ~ethertype;
    Bytes.blit payload 0 b hs n;
    b
  in
  match h with
  | Junk { arp; bytes } ->
    let ethertype =
      if arp then Psd_link.Frame.ethertype_arp
      else Psd_link.Frame.ethertype_ip
    in
    frame ethertype (Bytes.of_string bytes)
  | Packet k ->
    let hs = Psd_ip.Header.size in
    let body = Bytes.of_string k.body in
    let blen = Bytes.length body in
    let src =
      if k.from_peer then System.addr p.sys_a
      else Psd_ip.Addr.of_int (Hashtbl.hash k.body land 0x3fffffff)
    and dst = System.addr p.sys_b in
    let tcp = k.proto = Psd_ip.Header.proto_tcp
    and udp = k.proto = Psd_ip.Header.proto_udp in
    if k.aim && ((tcp && blen >= 20) || (udp && blen >= 8)) then begin
      let csum_at = if tcp then 16 else 6 in
      Psd_util.Codec.set_u16 body 2
        (if tcp then hostile_tcp_port else hostile_udp_port);
      if udp then Psd_util.Codec.set_u16 body 4 blen;
      Psd_util.Codec.set_u16 body csum_at 0;
      let acc =
        Psd_ip.Header.pseudo_checksum ~src ~dst ~proto:k.proto ~len:blen
      in
      Psd_util.Codec.set_u16 body csum_at
        (Psd_util.Checksum.finish
           (Psd_util.Checksum.add_bytes acc body ~off:0 ~len:blen))
    end;
    let packet = Bytes.make (hs + blen) '\x00' in
    Psd_ip.Header.encode_into packet ~off:0
      {
        Psd_ip.Header.src;
        dst;
        proto = k.proto;
        ttl = k.ttl;
        ident = k.ident;
        dont_frag = k.dont_frag;
        more_frags = k.more_frags;
        frag_off = k.frag_off;
        total_len = Option.value k.total_len ~default:(hs + blen);
      };
    Bytes.blit body 0 packet hs blen;
    frame Psd_link.Frame.ethertype_ip packet

let hostile_placements =
  [ Cfg.mach25_kernel; Cfg.ux_server; Cfg.library_ipc; Cfg.library_shm_ipf;
    Cfg.offload ]

(* Hostile frames into a host with a bound UDP socket and a TCP listener:
   nothing may raise out of the engine or fail a fiber, and a clean UDP
   echo between the two hosts still completes afterwards. *)
let hostile_survived config frames =
  let p = make_pair ~config () in
  let server = System.app p.sys_b ~name:"hostile-target" in
  Psd_sim.Engine.spawn p.eng ~name:"udp-echo" (fun () ->
      let s = Sockets.dgram server in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:hostile_udp_port ()) in
      let rec loop () =
        match Sockets.recvfrom s ~max:65536 with
        | Ok ("ping", Some dst) ->
          let (_ : int) = ok "reply" (Sockets.send s ~dst "re:ping") in
          loop ()
        | Ok _ | Error _ -> loop ()
      in
      loop ());
  Psd_sim.Engine.spawn p.eng ~name:"tcp-listener" (fun () ->
      let s = Sockets.stream server in
      let (_ : int) = ok "bind" (Sockets.bind s ~port:hostile_tcp_port ()) in
      ok "listen" (Sockets.listen s ());
      let rec loop () =
        match Sockets.accept s with
        | Ok c ->
          Sockets.close c;
          loop ()
        | Error _ -> ()
      in
      loop ());
  let src_mac = Psd_link.Macaddr.of_host_id 99 in
  let raw = Psd_link.Segment.attach p.seg ~mac:src_mac in
  Psd_sim.Engine.spawn p.eng ~name:"raw-sender" (fun () ->
      Psd_sim.Engine.sleep p.eng (Psd_sim.Time.ms 10);
      List.iter
        (fun h ->
          Psd_link.Segment.transmit raw (hostile_frame p ~src_mac h);
          Psd_sim.Engine.sleep p.eng (Psd_sim.Time.us 200))
        frames);
  let got = ref "" in
  let run span =
    match Psd_sim.Engine.run_for p.eng span with
    | () -> true
    | exception e ->
      QCheck.Test.fail_reportf "%s: %s escaped the engine" config.Cfg.label
        (Printexc.to_string e)
  in
  run (Psd_sim.Time.sec 5)
  && begin
    let client = System.app p.sys_a ~name:"udp-client" in
    Psd_sim.Engine.spawn p.eng ~name:"udp-client" (fun () ->
        let s = Sockets.dgram client in
        let (_ : int) = ok "bind" (Sockets.bind s ()) in
        let (_ : int) =
          ok "send" (Sockets.send s ~dst:(dst_b, hostile_udp_port) "ping")
        in
        match Sockets.recv s ~max:4096 with Ok d -> got := d | Error _ -> ());
    run (Psd_sim.Time.sec 20)
  end
  && (Psd_sim.Engine.failures p.eng = []
     || QCheck.Test.fail_reportf "%s: fiber failed: %s" config.Cfg.label
          (String.concat "; "
             (List.map
                (fun (name, e) -> name ^ ": " ^ Printexc.to_string e)
                (Psd_sim.Engine.failures p.eng))))
  && (!got = "re:ping"
     || QCheck.Test.fail_reportf "%s: echo after hostile frames got %S"
          config.Cfg.label !got)

let prop_hostile_frames =
  QCheck.Test.make ~name:"hostile frames never raise, in any placement"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 300) (make ~print:print_hostile hostile_gen))
    (fun frames ->
      List.for_all (fun config -> hostile_survived config frames)
        hostile_placements)

let () =
  Alcotest.run "psd_core"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "tcp echo, all configs" `Quick
            test_tcp_echo_all_configs;
          Alcotest.test_case "udp roundtrip, all configs" `Quick
            test_udp_roundtrip_all_configs;
          Alcotest.test_case "closing a fresh socket frees its port" `Quick
            test_fresh_close_releases_port;
          Alcotest.test_case "200KB transfer" `Quick
            test_backpressure_large_transfer;
          Alcotest.test_case "two apps, one host" `Quick
            test_two_apps_concurrent_on_one_host;
          Alcotest.test_case "socket boundary pinned per placement" `Quick
            test_boundary_pinned;
        ] );
      ( "migration",
        [
          Alcotest.test_case "library sessions migrate" `Quick
            test_library_sessions_migrate;
          Alcotest.test_case "server sessions stay" `Quick
            test_server_sessions_stay;
          Alcotest.test_case "datagram connect migrates once" `Quick
            test_dgram_connect_migrates_once;
          Alcotest.test_case "forked datagram connects" `Quick
            test_forked_dgram_connects;
          Alcotest.test_case "pre-accept data" `Quick
            test_data_before_accept_survives_migration;
          Alcotest.test_case "owned buffer survives close" `Quick
            (owned_buffer_survives_close Cfg.library_newapi_shm_ipf);
          Alcotest.test_case "owned buffer survives close (offload)" `Quick
            (owned_buffer_survives_close Cfg.offload);
          Alcotest.test_case "fork returns sessions" `Quick
            test_fork_returns_sessions;
          Alcotest.test_case "fork keeps unread bytes" `Quick
            test_fork_keeps_unread_bytes;
          Alcotest.test_case "fork keeps a delivered FIN" `Quick
            test_fork_keeps_delivered_fin;
          Alcotest.test_case "fork drops queued datagrams" `Quick
            test_fork_drops_queued_datagrams;
          Alcotest.test_case "migration storm, no leaks" `Quick
            test_migration_storm_no_leaks;
        ] );
      ( "select",
        [
          Alcotest.test_case "timeout" `Quick test_select_timeout;
          Alcotest.test_case "wakes on local data" `Quick
            test_select_wakes_on_local_data;
        ] );
      ( "exceptional",
        [
          Alcotest.test_case "task exit cleanup" `Quick
            test_task_exit_aborts_connections;
          Alcotest.test_case "server task exit cleanup" `Quick
            test_server_task_exit_cleanup;
          Alcotest.test_case "exit wakes a blocked acceptor" `Quick
            test_exit_wakes_blocked_acceptor;
          Alcotest.test_case "exit ends a blocked select" `Quick
            test_exit_ends_blocked_select;
          Alcotest.test_case "socket error text survives" `Quick
            test_socket_creation_error_text_survives;
          Alcotest.test_case "connect refused" `Quick test_connect_refused;
          Alcotest.test_case "port conflict" `Quick
            test_port_conflict_across_apps;
          Alcotest.test_case "arp metastate" `Quick test_arp_metastate_cached;
          Alcotest.test_case "icmp soft error (kernel)" `Quick
            test_udp_unreachable_soft_error_kernel;
          Alcotest.test_case "icmp soft error (library)" `Quick
            test_udp_unreachable_soft_error_library;
          Alcotest.test_case "refused send_owned books nothing" `Quick
            test_udp_refused_send_owned_books_nothing;
          Alcotest.test_case "refused stream send_owned books nothing" `Quick
            test_stream_refused_send_owned_books_nothing;
          Alcotest.test_case "ping" `Quick test_ping_via_kernel_stacks;
          Alcotest.test_case "nic shard follows engine" `Quick
            test_nic_shard_follows_engine;
        ] );
      ( "portalloc",
        [ Alcotest.test_case "invariants" `Quick test_portalloc_invariants ]
      );
      ( "lazy-state",
        [
          Alcotest.test_case "newapi loans, fresh vs drained" `Quick
            test_lazy_rcv_fresh_vs_drained;
          Alcotest.test_case "classic recv, fresh vs drained" `Quick
            test_lazy_rcv_classic_recv;
          Alcotest.test_case "on_hangup hook" `Quick test_on_hangup_hook;
        ] );
      ( "bsd-conformity",
        [
          Alcotest.test_case "half close" `Quick test_half_close;
          Alcotest.test_case "nonblocking recv/accept" `Quick
            test_nonblocking_recv_and_accept;
          Alcotest.test_case "nonblocking partial send" `Quick
            test_nonblocking_send_partial;
          Alcotest.test_case "calls on a closed descriptor" `Quick
            test_closed_descriptor;
          Alcotest.test_case "recv on a listening socket" `Quick
            test_recv_on_listener;
          Alcotest.test_case "second bind refused" `Quick
            test_second_bind_refused;
        ] );
      ("hostile", [ QCheck_alcotest.to_alcotest prop_hostile_frames ]);
      ( "broadcast-arp",
        [
          Alcotest.test_case "who-has allocation guard" `Quick
            test_who_has_allocation_guard;
        ] );
    ]
