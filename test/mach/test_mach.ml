open Psd_mach

let ( => ) name b = Alcotest.(check bool) name true b

let make_host ?(name = "h") () =
  let eng = Psd_sim.Engine.create () in
  let host = Host.create ~eng ~plat:Psd_cost.Platform.decstation ~name in
  (eng, host)

(* --- Task -------------------------------------------------------------- *)

let test_task_lifecycle () =
  let _eng, host = make_host () in
  let t = Task.create host ~name:"init" () in
  "alive" => Task.alive t;
  let log = ref [] in
  Task.on_exit t (fun () -> log := "a" :: !log);
  Task.on_exit t (fun () -> log := "b" :: !log);
  Task.exit t;
  "dead" => not (Task.alive t);
  Alcotest.(check (list string)) "hooks in order" [ "a"; "b" ] (List.rev !log);
  Task.exit t;
  Alcotest.(check int) "exit idempotent" 2 (List.length !log)

let test_task_fork () =
  let _eng, host = make_host () in
  let parent = Task.create host ~name:"parent" () in
  let child = Task.fork parent ~name:"child" in
  (* physical identity: a task transitively holds the engine (timer
     wheel, event heap), so structural [=] would walk into closures *)
  "parent link"
  => (match Task.parent child with Some p -> p == parent | None -> false);
  "distinct ids" => (Task.id parent <> Task.id child);
  Task.exit parent;
  Alcotest.check_raises "fork after death"
    (Invalid_argument "Task.fork: dead task") (fun () ->
      ignore (Task.fork parent ~name:"x"))

(* --- Ipc --------------------------------------------------------------- *)

let mk_ctx eng host =
  Psd_cost.Ctx.create ~eng ~cpu:(Host.cpu host)
    ~plat:(Host.plat host) ~role:Psd_cost.Ctx.Library_stack

let test_ipc_rpc_roundtrip () =
  let eng, host = make_host () in
  let port : (int, int) Ipc.port = Ipc.create_port host in
  Ipc.serve port (fun x -> x * 2);
  let results = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      for i = 1 to 3 do
        results := Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control i :: !results
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check (list int)) "replies" [ 2; 4; 6 ] (List.rev !results)

let test_ipc_costs_charged () =
  let eng, host = make_host () in
  let port : (unit, unit) Ipc.port = Ipc.create_port host in
  Ipc.serve port (fun () -> ());
  let elapsed = ref 0 in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      let t0 = Psd_sim.Engine.now eng in
      ignore (Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control ());
      elapsed := Psd_sim.Engine.now eng - t0);
  Psd_sim.Engine.run eng;
  (* trap + 2 messages + 2 wakeups on the DECstation: several hundred us *)
  "rpc costs simulated time" => (!elapsed > Psd_sim.Time.us 200);
  "but well under a millisecond" => (!elapsed < Psd_sim.Time.ms 1)

let test_ipc_blocking_handler_with_workers () =
  (* One handler blocks forever; other workers keep serving. *)
  let eng, host = make_host () in
  let port : (bool, unit) Ipc.port = Ipc.create_port host in
  let forever = Psd_sim.Cond.create eng in
  Ipc.serve port ~workers:2 (fun block ->
      if block then Psd_sim.Cond.wait forever);
  let served = ref 0 in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      ignore (Ipc.oneway port ~ctx ~phase:Psd_cost.Phase.Control true);
      ignore (Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control false);
      incr served);
  Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 1);
  Alcotest.(check int) "second worker served" 1 !served

(* --- Pktchan ------------------------------------------------------------ *)

let test_pktchan_ipc_delivers_in_order () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:Pktchan.Ipc ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Bytes.to_string (Pktchan.recv ch) :: !got
      done);
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "one"; "two"; "three" ]);
  Psd_sim.Engine.run eng;
  Alcotest.(check (list string)) "order" [ "one"; "two"; "three" ]
    (List.rev !got);
  Alcotest.(check int) "ipc wakes per packet" 3 (Pktchan.wakeups ch)

let test_pktchan_shm_batches_wakeups () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 16) ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref 0 in
  (* consumer that takes a while per packet: deliveries pile up *)
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 6 do
        ignore (Pktchan.recv ch);
        incr got;
        Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 1)
      done);
  Psd_sim.Engine.spawn eng (fun () ->
      for i = 1 to 6 do
        Pktchan.deliver ch (Bytes.make 10 (Char.chr i));
        Psd_sim.Engine.sleep eng (Psd_sim.Time.us 50)
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "all delivered" 6 !got;
  "wakeups amortised over the train" => (Pktchan.wakeups ch < 6)

let test_pktchan_shm_drops_when_full () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 2) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        Pktchan.deliver ch (Bytes.create 4)
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "kept ring capacity" 2 (Pktchan.queued ch);
  Alcotest.(check int) "dropped the rest" 3 (Pktchan.dropped ch)

let test_pktchan_shm_tail_drop_preserves_queue () =
  (* Overflow must tail-drop: the packets already in the ring are the
     oldest deliveries, byte-for-byte, never overwritten by later ones —
     and with no receiver blocked the kernel never pays a wakeup. *)
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 2) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "a"; "b"; "c"; "d"; "e" ]);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "dropped the overflow" 3 (Pktchan.dropped ch);
  Alcotest.(check int) "no wakeups while receiver not blocked" 0
    (Pktchan.wakeups ch);
  let kept = List.map Bytes.to_string (Pktchan.drain ch) in
  Alcotest.(check (list string)) "oldest survive, in order" [ "a"; "b" ] kept;
  Alcotest.(check int) "ring empty after drain" 0 (Pktchan.queued ch)

let test_pktchan_recv_batch_takes_train () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 8) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  let batch = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "x"; "y"; "z" ]);
  Psd_sim.Engine.spawn eng (fun () ->
      Psd_sim.Engine.sleep eng (Psd_sim.Time.us 10);
      batch := List.map Bytes.to_string (Pktchan.recv_batch ch));
  Psd_sim.Engine.run eng;
  Alcotest.(check (list string)) "whole train in one call" [ "x"; "y"; "z" ]
    !batch;
  Alcotest.(check int) "queued train needs no wakeup" 0 (Pktchan.wakeups ch)

(* --- Pktchan tx --------------------------------------------------------- *)

let frame_to dst_mac src_mac =
  let b = Bytes.make 64 '\x00' in
  Psd_link.Frame.set_header b ~off:0 ~dst:dst_mac ~src:src_mac
    ~ethertype:Psd_link.Frame.ethertype_ip;
  (* minimal IP header so session filters can parse if needed *)
  Psd_util.Codec.set_u8 b 14 0x45;
  b

let test_pktchan_send_batch_order () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:Pktchan.Ipc ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      Pktchan.send_batch ch
        (List.map Bytes.of_string [ "a"; "bb"; "ccc" ]));
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Bytes.to_string (Pktchan.tx_recv ch) :: !got
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check (list string))
    "batch comes out in order" [ "a"; "bb"; "ccc" ] (List.rev !got);
  Alcotest.(check int) "ipc pays a message per frame" 3
    (Pktchan.tx_wakeups ch);
  Alcotest.(check int) "all accepted" 3 (Pktchan.tx_sent ch)

let test_pktchan_tx_ring_tail_drop () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 2) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  Psd_sim.Engine.spawn eng (fun () ->
      Pktchan.send_batch ch
        (List.map Bytes.of_string [ "1"; "2"; "3"; "4"; "5" ]));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "kept tx ring capacity" 2 (Pktchan.tx_queued ch);
  Alcotest.(check int) "tail-dropped the rest" 3 (Pktchan.tx_dropped ch);
  let kept = List.map Bytes.to_string (Pktchan.tx_drain ch) in
  Alcotest.(check (list string)) "oldest frames survive" [ "1"; "2" ] kept;
  Alcotest.(check int) "no consumer, no wakeups" 0 (Pktchan.tx_wakeups ch)

(* Batch/singleton equivalence through a full tx chain: application
   frames go through the tx channel, a kernel fiber moves them onto a
   (faulty) wire, and a second NIC records what arrives. Per-frame
   send/tx_recv/transmit and send_batch/tx_recv_batch/transmit_batch
   must produce the same accepted count and the same delivered frame
   sequence — including under the PR 2 fault policies, whose RNG draws
   depend on event order and so detect any reordering. *)
let tx_chain ~use_batch ~fault_rate =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  (match fault_rate with
  | Some rate ->
    let f =
      Psd_link.Fault.create
        ~rng:(Psd_util.Rng.split (Psd_sim.Engine.rng eng))
        (Psd_link.Fault.chaos rate)
    in
    Psd_link.Segment.set_fault seg (Some f)
  | None -> ());
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let rx = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let got = ref [] in
  Psd_link.Segment.set_rx rx (fun b -> got := Bytes.to_string b :: !got);
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 32) ~deliver_fixed:100
      ~deliver_per_byte:1
  in
  let n = 20 in
  let frames =
    List.init n (fun i ->
        let b =
          frame_to (Psd_link.Macaddr.of_host_id 2)
            (Psd_link.Macaddr.of_host_id 1)
        in
        Bytes.set b 20 (Char.chr (i land 0xff));
        b)
  in
  Psd_sim.Engine.spawn eng (fun () ->
      if use_batch then Pktchan.send_batch ch frames
      else List.iter (fun f -> Pktchan.send ch f) frames);
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = Host.kernel_ctx host in
      let rec pump moved =
        if moved < n then
          if use_batch then begin
            let pkts = Pktchan.tx_recv_batch ch in
            Netdev.transmit_batch dev ~ctx ~from_user:true pkts;
            pump (moved + List.length pkts)
          end
          else begin
            Netdev.transmit dev ~ctx ~from_user:true (Pktchan.tx_recv ch);
            pump (moved + 1)
          end
      in
      pump 0);
  Psd_sim.Engine.run eng;
  (Pktchan.tx_sent ch, Psd_link.Segment.frames_sent seg, List.rev !got)

let test_pktchan_tx_batch_singleton_equivalence () =
  List.iter
    (fun fault_rate ->
      let sent_s, wire_s, got_s = tx_chain ~use_batch:false ~fault_rate in
      let sent_b, wire_b, got_b = tx_chain ~use_batch:true ~fault_rate in
      Alcotest.(check int) "same frames accepted" sent_s sent_b;
      Alcotest.(check int) "same frames on the wire" wire_s wire_b;
      Alcotest.(check (list string))
        "same frames delivered, same order" got_s got_b)
    [ None; Some 0.05; Some 0.2 ]

(* --- Netdev ------------------------------------------------------------- *)

let test_netdev_filter_priority_first_match () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let hits_hi = ref 0 and hits_lo = ref 0 in
  let accept_all = Psd_bpf.Filter.ip_all in
  let _lo =
    Netdev.attach dev ~prio:50 ~prog:accept_all
      ~sink:(fun _ -> incr hits_lo) ()
  in
  let hi =
    Netdev.attach dev ~prio:5 ~prog:accept_all ~sink:(fun _ -> incr hits_hi) ()
  in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "high priority won" 1 !hits_hi;
  Alcotest.(check int) "low priority skipped" 0 !hits_lo;
  (* detach the high-priority one: low now receives *)
  Netdev.detach dev hi;
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "fallback after detach" 1 !hits_lo

let test_netdev_unmatched_counted () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "rx seen" 1 (Netdev.rx_frames dev);
  Alcotest.(check int) "unmatched dropped" 1 (Netdev.rx_unmatched dev)

let test_netdev_rejects_invalid_filter () =
  let eng, host = make_host () in
  ignore eng;
  let seg = Psd_sim.Engine.create () |> fun e -> Psd_link.Segment.create e () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  match
    Netdev.attach dev ~prog:[| Psd_bpf.Insn.Ld (Psd_bpf.Insn.W, Psd_bpf.Insn.Imm 0) |]
      ~sink:(fun _ -> ()) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid program accepted"

let test_netdev_deferred_rx_cheaper_interrupt () =
  (* Rx_deferred charges less CPU at interrupt time than Rx_full_copy. *)
  let run mode =
    let eng, host = make_host () in
    let seg = Psd_link.Segment.create eng () in
    let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
    Netdev.set_rx_mode dev mode;
    let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
    let _f =
      Netdev.attach dev ~prog:Psd_bpf.Filter.ip_all ~sink:(fun _ -> ()) ()
    in
    let big = Bytes.make 1400 'x' in
    let frame = Bytes.create (14 + Bytes.length big) in
    Psd_link.Frame.set_header frame ~off:0 ~dst:(Netdev.mac dev)
      ~src:(Psd_link.Macaddr.of_host_id 2)
      ~ethertype:Psd_link.Frame.ethertype_ip;
    Bytes.blit big 0 frame 14 (Bytes.length big);
    Psd_link.Segment.transmit other frame;
    Psd_sim.Engine.run eng;
    Psd_sim.Cpu.busy_time (Host.cpu host)
  in
  let full = run Netdev.Rx_full_copy in
  let deferred = run Netdev.Rx_deferred in
  "deferred interrupt is much cheaper" => (deferred * 2 < full)

(* The receive interrupt is a fiber-less task: a sink that raises must
   still be reported like a dying fiber, trace line included. *)
let test_netdev_sink_failure_reported () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let traced = ref [] in
  Psd_sim.Engine.set_trace eng (Some (fun ~time:_ msg -> traced := msg :: !traced));
  let _f =
    Netdev.attach dev ~prog:Psd_bpf.Filter.ip_all
      ~sink:(fun _ -> failwith "sink boom")
      ()
  in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  (match Psd_sim.Engine.run eng with
  | () -> Alcotest.fail "sink failure not reported by run"
  | exception Failure _ -> ());
  Alcotest.(check (list string)) "failures" [ "Failure(\"sink boom\")" ]
    (List.map Printexc.to_string (Psd_sim.Engine.failures eng));
  Alcotest.(check (list string)) "trace"
    [ "fiber netintr died: Failure(\"sink boom\")" ]
    !traced;
  Alcotest.(check int) "task ended" 0 (Psd_sim.Engine.alive eng)

(* A burst whose sink blocks (Library-IPC delivery charges the kernel
   and waits for the CPU the interrupts hold): every interrupt counts as
   alive until its sink returns, and none is left behind. *)
let test_netdev_blocking_sink_alive () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let ch =
    Pktchan.create host ~kind:Pktchan.Ipc ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let peak = ref 0 and min_inside = ref max_int in
  let sample () =
    let a = Psd_sim.Engine.alive eng in
    peak := Int.max !peak a;
    min_inside := Int.min !min_inside a
  in
  let _f =
    Netdev.attach dev ~prog:Psd_bpf.Filter.ip_all
      ~sink:(fun frame ->
        sample ();
        Pktchan.deliver ch frame;
        sample ())
      ()
  in
  let burst = 20 in
  for _ = 1 to burst do
    Psd_link.Segment.transmit other
      (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2))
  done;
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "all delivered" burst (Pktchan.delivered ch);
  "a sink counts itself" => (!min_inside >= 1);
  "blocked sinks overlap later interrupts" => (!peak > 1);
  Alcotest.(check int) "alive back to 0" 0 (Psd_sim.Engine.alive eng)

let () =
  Alcotest.run "psd_mach"
    [
      ( "task",
        [
          Alcotest.test_case "lifecycle" `Quick test_task_lifecycle;
          Alcotest.test_case "fork" `Quick test_task_fork;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "rpc roundtrip" `Quick test_ipc_rpc_roundtrip;
          Alcotest.test_case "costs" `Quick test_ipc_costs_charged;
          Alcotest.test_case "blocking handler" `Quick
            test_ipc_blocking_handler_with_workers;
        ] );
      ( "pktchan",
        [
          Alcotest.test_case "ipc order" `Quick
            test_pktchan_ipc_delivers_in_order;
          Alcotest.test_case "shm batching" `Quick
            test_pktchan_shm_batches_wakeups;
          Alcotest.test_case "shm overflow" `Quick
            test_pktchan_shm_drops_when_full;
          Alcotest.test_case "shm tail-drop" `Quick
            test_pktchan_shm_tail_drop_preserves_queue;
          Alcotest.test_case "recv_batch train" `Quick
            test_pktchan_recv_batch_takes_train;
          Alcotest.test_case "send_batch order" `Quick
            test_pktchan_send_batch_order;
          Alcotest.test_case "tx ring tail-drop" `Quick
            test_pktchan_tx_ring_tail_drop;
          Alcotest.test_case "tx batch == singleton (faults)" `Quick
            test_pktchan_tx_batch_singleton_equivalence;
        ] );
      ( "netdev",
        [
          Alcotest.test_case "filter priority" `Quick
            test_netdev_filter_priority_first_match;
          Alcotest.test_case "unmatched" `Quick test_netdev_unmatched_counted;
          Alcotest.test_case "sink failure reported" `Quick
            test_netdev_sink_failure_reported;
          Alcotest.test_case "blocking sink alive" `Quick
            test_netdev_blocking_sink_alive;
          Alcotest.test_case "invalid filter" `Quick
            test_netdev_rejects_invalid_filter;
          Alcotest.test_case "deferred rx" `Quick
            test_netdev_deferred_rx_cheaper_interrupt;
        ] );
    ]
