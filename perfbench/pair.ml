(* A two-host topology on one Ethernet segment, built through the public
   System and Sockets APIs: a client host, and a server host running a
   TCP and a UDP echo service on port 7. The rpc, churn and bulk
   workloads build their hosts with it. *)

open Psd_core
open Common
module Engine = Psd_sim.Engine

type t = {
  config : Psd_cost.Config.t;
  eng : Engine.t;
  seg : Psd_link.Segment.t;
  cli : System.t;
  srv : System.t;
  capp : Sockets.app;
  sapp : Sockets.app;
}

let echo_port = 7

(* Echo every byte back until EOF, then close. *)
let serve_stream eng c =
  Engine.spawn eng ~name:"echo-conn" (fun () ->
      let rec loop () =
        match Sockets.recv c ~max:65536 with
        | Ok "" | Error _ -> Sockets.close c
        | Ok d -> (
          match Sockets.send c d with
          | Ok _ -> loop ()
          | Error _ -> Sockets.close c)
      in
      loop ())

let start_echo t =
  Engine.spawn t.eng ~name:"echo-accept" (fun () ->
      let l = Sockets.stream t.sapp in
      ignore (ok "echo bind" (Sockets.bind l ~port:echo_port ()));
      ok "echo listen" (Sockets.listen l ~backlog:64 ());
      let rec loop () =
        match Sockets.accept l with
        | Ok c ->
          Sockets.set_nodelay c true;
          serve_stream t.eng c;
          loop ()
        | Error _ -> ()
      in
      loop ());
  Engine.spawn t.eng ~name:"echo-udp" (fun () ->
      let s = Sockets.dgram t.sapp in
      ignore (ok "udp echo bind" (Sockets.bind s ~port:echo_port ()));
      let rec loop () =
        match Sockets.recvfrom s ~max:65536 with
        | Ok (d, Some src) ->
          ignore (Sockets.send s ~dst:src d);
          loop ()
        | Ok (_, None) | Error _ -> ()
      in
      loop ())

let create ~seed config =
  Span.run "core.topology" (fun () ->
      let eng = Engine.create ~seed () in
      let seg = Psd_link.Segment.create eng () in
      let host addr name =
        Span.run "core.system_create" (fun () ->
            System.create ~eng ~segment:seg ~config ~addr ~name ())
      in
      let cli = host "10.0.0.1" "client" in
      let srv = host "10.0.0.2" "server" in
      let app sys name =
        Span.run "core.app_create" (fun () -> System.app sys ~name)
      in
      let sapp = app srv "echo" in
      let capp = app cli "client" in
      let t = { config; eng; seg; cli; srv; capp; sapp } in
      start_echo t;
      t)

let hosts t = [ (t.cli, [ t.capp ]); (t.srv, [ t.sapp ]) ]
let snapshot t = Counts.snapshot t.eng (hosts t)

(* Drive the engine in fixed virtual slices until [finished] holds; the
   slicing depends only on simulation state, so it is deterministic. *)
let run_until_done t finished =
  let guard = ref 0 in
  while not !finished do
    Span.run "sim.run" (fun () ->
        Engine.run_for t.eng (Psd_sim.Time.ms 50));
    incr guard;
    if !guard > 1_000_000 then failwith "simulation did not finish"
  done

(* Let the servers come up (bind, listen) before anything is measured. *)
let settle t =
  Span.run "sim.run" (fun () -> Engine.run_for t.eng (Psd_sim.Time.ms 1))

(* Run [f] as a client fiber to completion. An exception in [f] is
   returned, not raised, so the caller can count the failed op. *)
let client t f =
  let finished = ref false and err = ref None in
  Engine.spawn t.eng ~name:"bench-client" (fun () ->
      (try f () with e -> err := Some (Printexc.to_string e));
      finished := true);
  run_until_done t finished;
  !err

(* Close-down: let every connection finish its close handshake and
   TIME_WAIT (2 MSL = 60 s virtual). *)
let drain t =
  Span.run "sim.run" (fun () -> Engine.run_for t.eng (Psd_sim.Time.sec 70))

let drained t = Counts.drained (hosts t)

let connect t =
  let s = Span.leaf "socket.stream" (fun () -> Sockets.stream t.capp) in
  (match
     Span.leaf "socket.connect" (fun () ->
         Sockets.connect s (System.addr t.srv) echo_port)
   with
  | Ok () -> ()
  | Error e -> failwith ("connect: " ^ e));
  Sockets.set_nodelay s true;
  s

(* Send [msg] and read exactly its length back; [true] when the echo is
   byte-identical. *)
let echo_stream s msg =
  (match Span.leaf "socket.send" (fun () -> Sockets.send s msg) with
  | Ok _ -> ()
  | Error e -> failwith ("send: " ^ e));
  let n = String.length msg in
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    match
      Span.leaf "socket.recv" (fun () ->
          Sockets.recv s ~max:(n - Buffer.length buf))
    with
    | Ok "" -> failwith "eof before echo"
    | Ok d -> Buffer.add_string buf d
    | Error e -> failwith ("recv: " ^ e)
  done;
  String.equal (Buffer.contents buf) msg

let close s = Span.leaf "socket.close" (fun () -> Sockets.close s)
