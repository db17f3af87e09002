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

(* The operating-system server's port serves 16 requests at once: a 17th
   waits for a worker, and a port with nothing to do keeps no fiber. *)
let test_ipc_worker_cap () =
  let eng, host = make_host () in
  let port : (int, int) Ipc.port = Ipc.create_port host in
  let gate = Psd_sim.Cond.create eng in
  let opened = ref false and handled = ref [] in
  Ipc.serve port ~workers:16 (fun i ->
      Psd_sim.Cond.until gate (fun () -> if !opened then Some () else None);
      handled := i :: !handled;
      i);
  Alcotest.(check int) "idle port: no fiber" 0 (Psd_sim.Engine.alive eng);
  let replies = ref [] in
  for i = 1 to 17 do
    Psd_sim.Engine.spawn eng (fun () ->
        let ctx = mk_ctx eng host in
        let r = Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control i in
        replies := r :: !replies)
  done;
  Psd_sim.Engine.run_for eng (Psd_sim.Time.ms 100);
  Alcotest.(check int) "17 callers and 16 workers" 33
    (Psd_sim.Engine.alive eng);
  Alcotest.(check int) "no reply yet" 0 (List.length !replies);
  opened := true;
  Psd_sim.Cond.broadcast gate;
  Psd_sim.Engine.run eng;
  Alcotest.(check (list int)) "every request answered"
    (List.init 17 (fun i -> i + 1))
    (List.sort Int.compare !replies);
  Alcotest.(check int) "each handled once" 17 (List.length !handled);
  Alcotest.(check int) "idle again: no fiber" 0 (Psd_sim.Engine.alive eng)

(* --- Pktchan ------------------------------------------------------------ *)

let test_pktchan_ipc_delivers_in_order () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:Pktchan.Ipc ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      while List.length !got < 3 do
        List.iter
          (fun p -> got := Bytes.to_string p :: !got)
          (Pktchan.recv_batch ch)
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
      while !got < 6 do
        List.iter
          (fun _ ->
            incr got;
            Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 1))
          (Pktchan.recv_batch ch)
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
  (* the ring holds packets, so this takes them without blocking *)
  let kept = List.map Bytes.to_string (Pktchan.recv_batch ch) in
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

(* --- Netdev ------------------------------------------------------------- *)

let frame_to dst_mac src_mac =
  let b = Bytes.make 64 '\x00' in
  Psd_link.Frame.set_header b ~off:0 ~dst:dst_mac ~src:src_mac
    ~ethertype:Psd_link.Frame.ethertype_ip;
  (* minimal IP header so session filters can parse if needed *)
  Psd_util.Codec.set_u8 b 14 0x45;
  b

let test_netdev_filter_priority_first_match () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let hits_hi = ref 0 and hits_lo = ref 0 in
  let accept_all = Psd_bpf.Filter.ip_all in
  let _lo =
    Netdev.attach dev ~prio:50 (Program accept_all)
      ~sink:(Enqueue (fun _ -> incr hits_lo))
  in
  let hi =
    Netdev.attach dev ~prio:5 (Program accept_all)
      ~sink:(Enqueue (fun _ -> incr hits_hi))
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
    Netdev.attach dev
      (Program [| Psd_bpf.Insn.Ld (Psd_bpf.Insn.W, Psd_bpf.Insn.Imm 0) |])
      ~sink:(Enqueue ignore)
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
      Netdev.attach dev (Program Psd_bpf.Filter.ip_all) ~sink:(Enqueue ignore)
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
   still be reported like a dying fiber, under its name and in [run]'s
   failure, whether it runs inline or under the fiber handler. Returns
   the recorded (name, exception text) pairs and [run]'s message. *)
let run_failing_sink sink =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let _f = Netdev.attach dev (Program Psd_bpf.Filter.ip_all) ~sink:(sink eng) in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  let msg =
    match Psd_sim.Engine.run eng with
    | () -> Alcotest.fail "sink failure not reported by run"
    | exception Failure msg -> msg
  in
  Alcotest.(check int) "task ended" 0 (Psd_sim.Engine.alive eng);
  ( List.map
      (fun (name, e) -> (name, Printexc.to_string e))
      (Psd_sim.Engine.failures eng),
    msg )

let test_netdev_sink_failure_reported () =
  List.iter
    (fun sink ->
      let failures, msg =
        run_failing_sink (fun _ -> sink (fun _ -> failwith "sink boom"))
      in
      Alcotest.(check (list (pair string string)))
        "failures"
        [ ("netintr", "Failure(\"sink boom\")") ]
        failures;
      Alcotest.(check string) "run's failure"
        "Engine.run: 1 fiber failure(s); first: fiber netintr died: \
         Failure(\"sink boom\")"
        msg)
    [ (fun k -> Netdev.Enqueue k); (fun k -> Netdev.May_block k) ]

(* An [Enqueue] sink runs with no fiber: one that blocks after all (here
   a suspend nothing resumes) has no handler for its effect and must
   fail the interrupt, not hang it or run on silently. *)
let test_netdev_enqueue_sink_effect_fails () =
  let failures, _ =
    run_failing_sink (fun eng ->
        Netdev.Enqueue (fun _ -> Psd_sim.Engine.suspend eng ignore))
  in
  match failures with
  | [ (name, _) ] ->
    Alcotest.(check string) "reported as a netintr failure" "netintr" name
  | _ -> Alcotest.fail "expected one failure"

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
    Netdev.attach dev (Program Psd_bpf.Filter.ip_all)
      ~sink:
        (May_block
           (fun frame ->
             sample ();
             Pktchan.deliver ch frame;
             sample ()))
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

(* The filter set's order: ranked by [prio], newest first among equal
   priorities. The reference list is a stable sort by [prio] of
   [new :: list] on attach and a [List.filter] on detach; after every
   step, a probe frame every filter accepts must reach the reference's
   head. Half the filters are flat descriptors and half compiled
   programs, so both matcher forms sit in one set. *)
type order_op = Attach of int | Detach of int

let print_order_op = function
  | Attach prio -> Printf.sprintf "attach %d" prio
  | Detach k -> Printf.sprintf "detach #%d" k

type ref_filter = { tag : int; r_prio : int; fid : Netdev.filter_id }

let filter_order_follows_reference ops =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let got = ref None in
  let rec go reference tag = function
    | [] -> true
    | op :: ops ->
      let reference, next_tag =
        match op with
        | Attach prio ->
          let m =
            if tag land 1 = 0 then Netdev.Flat Psd_bpf.Filter.ip_all_flat
            else Netdev.Program Psd_bpf.Filter.ip_all
          in
          let fid =
            Netdev.attach dev ~prio m ~sink:(Enqueue (fun _ -> got := Some tag))
          in
          let f = { tag; r_prio = prio; fid } in
          ( List.stable_sort
              (fun a b -> compare a.r_prio b.r_prio)
              (f :: reference),
            tag + 1 )
        | Detach k when reference <> [] ->
          let fid = (List.nth reference (k mod List.length reference)).fid in
          Netdev.detach dev fid;
          (List.filter (fun f -> f.fid <> fid) reference, tag)
        | Detach _ -> (reference, tag)
      in
      got := None;
      Psd_link.Segment.transmit other
        (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
      Psd_sim.Engine.run eng;
      let want = match reference with [] -> None | f :: _ -> Some f.tag in
      let show = Option.fold ~none:"none" ~some:string_of_int in
      (!got = want
      || QCheck.Test.fail_reportf "after %s: filter %s took the probe, want %s"
           (print_order_op op) (show !got) (show want))
      && (Netdev.filters dev = List.length reference
         || QCheck.Test.fail_reportf "after %s: %d filters, reference has %d"
              (print_order_op op) (Netdev.filters dev)
              (List.length reference))
      && go reference next_tag ops
  in
  go [] 0 ops

let prop_filter_order =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun p -> Attach p) (oneofl [ 5; 10; 20; 50; 100 ]));
          (2, map (fun k -> Detach k) nat);
        ])
  in
  Test.make ~name:"filter set: first match follows stable sort by prio"
    ~count:300
    (list_of_size Gen.(0 -- 60) (make ~print:print_order_op op))
    filter_order_follows_reference

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
          Alcotest.test_case "worker cap" `Quick test_ipc_worker_cap;
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
        ] );
      ( "netdev",
        [
          Alcotest.test_case "filter priority" `Quick
            test_netdev_filter_priority_first_match;
          Alcotest.test_case "unmatched" `Quick test_netdev_unmatched_counted;
          Alcotest.test_case "sink failure reported" `Quick
            test_netdev_sink_failure_reported;
          Alcotest.test_case "enqueue sink effect" `Quick
            test_netdev_enqueue_sink_effect_fails;
          Alcotest.test_case "blocking sink alive" `Quick
            test_netdev_blocking_sink_alive;
          Alcotest.test_case "invalid filter" `Quick
            test_netdev_rejects_invalid_filter;
          Alcotest.test_case "deferred rx" `Quick
            test_netdev_deferred_rx_cheaper_interrupt;
        ] );
      ("filter-order", [ QCheck_alcotest.to_alcotest prop_filter_order ]);
    ]
