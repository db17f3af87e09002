open Psd_tcp
open Psd_mbuf
open Psd_test_support.Harness

let ( => ) name b = Alcotest.(check bool) name true b

(* --- Seq -------------------------------------------------------------- *)

let test_seq_wraparound () =
  let near_top = 0xffff_fff0 in
  let wrapped = Seq.add near_top 0x20 in
  "wraps" => (wrapped = 0x10);
  "lt across wrap" => Seq.lt near_top wrapped;
  "gt across wrap" => Seq.gt wrapped near_top;
  Alcotest.(check int) "diff" 0x20 (Seq.diff wrapped near_top);
  Alcotest.(check int) "negative diff" (-0x20) (Seq.diff near_top wrapped)

let prop_seq_ordering =
  QCheck.Test.make ~name:"seq: add then diff roundtrips" ~count:500
    QCheck.(pair (int_bound 0xfffffff) (int_bound 60000))
    (fun (base, n) ->
      let s = Seq.add base n in
      Seq.diff s base = n && Seq.geq s base && (n = 0 || Seq.gt s base))

let test_seq_in_window () =
  "start" => Seq.in_window 100 ~base:100 ~size:10;
  "end excl" => not (Seq.in_window 110 ~base:100 ~size:10);
  "wrap" => Seq.in_window 3 ~base:0xffff_fffa ~size:20

(* --- Segment codec ----------------------------------------------------- *)

let test_segment_roundtrip () =
  let src = Psd_ip.Addr.of_string "10.0.0.1"
  and dst = Psd_ip.Addr.of_string "10.0.0.2" in
  let seg =
    {
      Segment.src_port = 1234;
      dst_port = 80;
      seq = 0xdeadbeef;
      ack = 0x01020304;
      flags = { Segment.no_flags with Segment.ack = true; psh = true };
      window = 8192;
      mss = None;
    }
  in
  let packet = Segment.encode seg ~src ~dst ~payload:(Mbuf.of_string "data!") in
  match Segment.decode (Mbuf.to_bytes packet) ~src ~dst with
  | Error e -> Alcotest.failf "%a" Segment.pp_decode_error e
  | Ok (seg', payload) ->
    Alcotest.(check int) "sport" 1234 seg'.Segment.src_port;
    Alcotest.(check int) "seq" 0xdeadbeef seg'.Segment.seq;
    Alcotest.(check int) "ack" 0x01020304 seg'.Segment.ack;
    "psh" => seg'.Segment.flags.Segment.psh;
    Alcotest.(check string) "payload" "data!" (Mbuf.to_string payload)

let test_segment_mss_option () =
  let src = Psd_ip.Addr.of_string "10.0.0.1"
  and dst = Psd_ip.Addr.of_string "10.0.0.2" in
  let seg =
    {
      Segment.src_port = 1;
      dst_port = 2;
      seq = 0;
      ack = 0;
      flags = { Segment.no_flags with Segment.syn = true };
      window = 1000;
      mss = Some 1460;
    }
  in
  let packet = Segment.encode seg ~src ~dst ~payload:(Mbuf.empty ()) in
  match Segment.decode (Mbuf.to_bytes packet) ~src ~dst with
  | Ok (seg', _) -> Alcotest.(check (option int)) "mss" (Some 1460) seg'.Segment.mss
  | Error e -> Alcotest.failf "%a" Segment.pp_decode_error e

let test_segment_checksum_detects () =
  let src = Psd_ip.Addr.of_string "10.0.0.1"
  and dst = Psd_ip.Addr.of_string "10.0.0.2" in
  let seg =
    {
      Segment.src_port = 1;
      dst_port = 2;
      seq = 7;
      ack = 0;
      flags = Segment.no_flags;
      window = 0;
      mss = None;
    }
  in
  let packet =
    Mbuf.to_bytes (Segment.encode seg ~src ~dst ~payload:(Mbuf.of_string "xy"))
  in
  Bytes.set packet 21 'z';
  match Segment.decode packet ~src ~dst with
  | Error Segment.Bad_checksum -> ()
  | Error e ->
    Alcotest.failf "expected Bad_checksum, got %a" Segment.pp_decode_error e
  | Ok _ -> Alcotest.fail "corruption accepted"

let test_decode_error_classes () =
  let src = Psd_ip.Addr.of_string "10.0.0.1"
  and dst = Psd_ip.Addr.of_string "10.0.0.2" in
  (match Segment.decode (Bytes.create 10) ~src ~dst with
  | Error Segment.Truncated -> ()
  | _ -> Alcotest.fail "short buffer must be Truncated");
  let seg =
    {
      Segment.src_port = 1;
      dst_port = 2;
      seq = 7;
      ack = 0;
      flags = Segment.no_flags;
      window = 0;
      mss = None;
    }
  in
  let packet =
    Mbuf.to_bytes (Segment.encode seg ~src ~dst ~payload:(Mbuf.of_string "xy"))
  in
  (* data offset claiming 60 header bytes in a 22-byte segment: framing,
     not checksum, even though the checksum is now stale too *)
  Bytes.set_uint8 packet 12 0xf0;
  match Segment.decode packet ~src ~dst with
  | Error Segment.Bad_offset -> ()
  | Error e ->
    Alcotest.failf "expected Bad_offset, got %a" Segment.pp_decode_error e
  | Ok _ -> Alcotest.fail "impossible offset accepted"

(* --- connection establishment ------------------------------------------ *)

(* Server that accepts everything on [port], records into a sink, and —
   like a real socket layer — consumes received data so the window
   reopens. With [~close_on_eof:true] it also shuts down its own side
   when the peer does, so both PCBs drain through TIME_WAIT. *)
let autoserver net ?(rcv_assign = fun _ -> ()) ?(close_on_eof = false) port =
  let sink = make_sink () in
  let listener = Tcp.listen net.b.tcp ~port () in
  Tcp.on_ready listener (fun () ->
      Psd_sim.Engine.spawn net.eng ~name:"accept" (fun () ->
          match Tcp.accept_ready listener with
          | Some pcb ->
            let h = sink_handlers sink in
            Tcp.set_handlers pcb
              {
                h with
                Tcp.deliver =
                  (fun _ m ->
                    let n = Mbuf.length m in
                    Buffer.add_string sink.buf (Mbuf.to_string m);
                    (* upcalls run under the stack lock: consume later *)
                    Psd_sim.Engine.spawn net.eng ~name:"consume" (fun () ->
                        Tcp.user_consumed pcb n));
                deliver_fin =
                  (fun p ->
                    h.Tcp.deliver_fin p;
                    if close_on_eof then
                      Psd_sim.Engine.spawn net.eng ~name:"close" (fun () ->
                          Tcp.shutdown_send pcb));
              };
            rcv_assign pcb
          | None -> ()));
  (sink, listener)

let test_handshake () =
  let net = create () in
  let server_pcb = ref None in
  let _server_sink, _l =
    autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80
  in
  let client_sink = make_sink () in
  let pcb = ref None in
  Psd_sim.Engine.spawn net.eng (fun () ->
      pcb :=
        Some
          (Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
             ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()));
  run_for net (Psd_sim.Time.ms 20);
  "client established" => client_sink.established;
  "server accepted+established"
  => (match !server_pcb with
     | Some p -> Tcp.state p = Tcp.Established
     | None -> false);
  (match !pcb with
  | Some p -> Alcotest.(check string) "state" "ESTABLISHED"
                (Format.asprintf "%a" Tcp.pp_state (Tcp.state p))
  | None -> Alcotest.fail "no pcb");
  (* exactly one connection on each side *)
  Alcotest.(check int) "a pcbs" 1 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b pcbs" 1 (Tcp.active_pcbs net.b.tcp)

let test_connect_refused () =
  let net = create () in
  let sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      ignore
        (Tcp.connect net.a.tcp ~handlers:(sink_handlers sink) ~src_port:5000
           ~dst:net.b.addr ~dst_port:81 ()));
  run_for net (Psd_sim.Time.ms 20);
  "refused" => (sink.errors = [ Tcp.Refused ]);
  Alcotest.(check int) "rst sent" 1 (Tcp.stats net.b.tcp).Tcp.rst_out

let test_handshake_with_syn_loss () =
  let net = create () in
  (* drop the first packet on the wire: the SYN *)
  drop_nth net 1;
  let server_pcb = ref None in
  let _, _ = autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      ignore
        (Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
           ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()));
  run_for net (Psd_sim.Time.ms 500);
  "established despite SYN loss" => client_sink.established;
  "server side up"
  => (match !server_pcb with
     | Some p -> Tcp.state p = Tcp.Established
     | None -> false)

let test_simultaneous_open () =
  let net = create () in
  let sa = make_sink () and sb = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      ignore
        (Tcp.connect net.a.tcp ~handlers:(sink_handlers sa) ~src_port:5000
           ~dst:net.b.addr ~dst_port:6000 ()));
  Psd_sim.Engine.spawn net.eng (fun () ->
      ignore
        (Tcp.connect net.b.tcp ~handlers:(sink_handlers sb) ~src_port:6000
           ~dst:net.a.addr ~dst_port:5000 ()));
  run_for net (Psd_sim.Time.sec 2);
  "a established" => sa.established;
  "b established" => sb.established

let test_backlog_limit () =
  let net = create () in
  let listener = Tcp.listen net.b.tcp ~port:80 ~backlog:2 () in
  for i = 0 to 4 do
    Psd_sim.Engine.spawn net.eng (fun () ->
        ignore
          (Tcp.connect net.a.tcp ~src_port:(6000 + i) ~dst:net.b.addr
             ~dst_port:80 ()))
  done;
  run_for net (Psd_sim.Time.ms 10);
  "backlog respected" => (Tcp.pending listener <= 2)

(* --- data transfer ------------------------------------------------------ *)

let oneway_transfer ?(nodelay = true) ?seed ?chunks payload =
  let net = create ?seed () in
  let server_sink, _ = autoserver net 80 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Tcp.set_nodelay pcb nodelay;
      (* wait for establishment *)
      let cond = Psd_sim.Cond.create net.eng in
      let h = sink_handlers client_sink in
      Tcp.set_handlers pcb
        {
          h with
          Tcp.on_established =
            (fun _ ->
              client_sink.established <- true;
              Psd_sim.Cond.broadcast cond);
          on_acked =
            (fun _ n ->
              client_sink.acked <- client_sink.acked + n;
              Psd_sim.Cond.broadcast cond);
        };
      if not client_sink.established then Psd_sim.Cond.wait cond;
      (match chunks with
      | None -> Tcp.send pcb (Mbuf.of_string payload)
      | Some sizes ->
        let off = ref 0 in
        List.iter
          (fun sz ->
            let sz = min sz (String.length payload - !off) in
            if sz > 0 then begin
              Tcp.send pcb (Mbuf.of_string (String.sub payload !off sz));
              off := !off + sz
            end)
          sizes;
        if !off < String.length payload then
          Tcp.send pcb
            (Mbuf.of_string
               (String.sub payload !off (String.length payload - !off))));
      (* wait until all acked *)
      while client_sink.acked < String.length payload do
        Psd_sim.Cond.wait cond
      done;
      Tcp.shutdown_send pcb);
  run_for net (Psd_sim.Time.sec 30);
  (net, server_sink, client_sink)

let test_small_transfer () =
  let _, server, _ = oneway_transfer "hello, world" in
  Alcotest.(check string) "payload" "hello, world" (contents server);
  "eof delivered" => server.eof

let test_empty_close () =
  let _, server, _ = oneway_transfer "" in
  Alcotest.(check string) "payload" "" (contents server);
  "eof" => server.eof

let test_large_transfer () =
  let payload = String.init 200_000 (fun i -> Char.chr (i * 31 mod 256)) in
  let net, server, _ = oneway_transfer payload in
  Alcotest.(check int) "length" (String.length payload)
    (String.length (contents server));
  "content" => String.equal payload (contents server);
  (* Sliding window must bound in-flight data: many segments. *)
  "many segments" => ((Tcp.stats net.a.tcp).Tcp.segs_out > 100)

let test_mss_respected () =
  let payload = String.make 10_000 'x' in
  let net, server, _ = oneway_transfer payload in
  ignore server;
  let st = Tcp.stats net.a.tcp in
  (* 10000 bytes / 1460 mss -> at least 7 data segments *)
  "segmented" => (st.Tcp.segs_out >= 7)

let test_echo_bidirectional () =
  let net = create () in
  let server_pcb = ref None in
  let server_sink = make_sink () in
  let listener = Tcp.listen net.b.tcp ~port:7 () in
  (* echo server: send back whatever arrives *)
  Tcp.on_ready listener (fun () ->
      Psd_sim.Engine.spawn net.eng ~name:"echo" (fun () ->
          match Tcp.accept_ready listener with
          | Some pcb ->
            server_pcb := Some pcb;
            let h = sink_handlers server_sink in
            Tcp.set_handlers pcb
              {
                h with
                Tcp.deliver =
                  (fun _ m ->
                    Buffer.add_string server_sink.buf (Mbuf.to_string m);
                    Psd_sim.Engine.spawn net.eng (fun () ->
                        Tcp.send pcb
                          (Mbuf.of_string (Mbuf.to_string m))));
              }
          | None -> ()));
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:7 ()
      in
      Tcp.set_nodelay pcb true;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string "ping-1;");
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string "ping-2;"));
  run_for net (Psd_sim.Time.sec 2);
  Alcotest.(check string) "server saw" "ping-1;ping-2;" (contents server_sink);
  Alcotest.(check string) "client got echo" "ping-1;ping-2;"
    (contents client_sink)

let test_data_loss_retransmit () =
  let net = create () in
  let server_sink, _ = autoserver net 80 in
  (* drop the first TCP segment carrying >= 100 bytes of data *)
  drop_nth net ~pred:(tcp_data_at_least 100) 1;
  let payload = String.init 5_000 (fun i -> Char.chr (i mod 251)) in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string payload));
  run_for net (Psd_sim.Time.sec 5);
  "delivered despite loss" => String.equal payload (contents server_sink);
  "retransmitted" => ((Tcp.stats net.a.tcp).Tcp.rexmt_segs >= 1)

let test_fast_retransmit () =
  let net = create () in
  let server_sink, _ = autoserver net 80 in
  (* Lose a full-size segment once the congestion window has opened; the
     following segments generate duplicate ACKs that trigger fast
     retransmit before the RTO. *)
  drop_nth net ~pred:(tcp_data_at_least 1000) 8;
  let payload = String.init 60_000 (fun i -> Char.chr (i * 7 mod 256)) in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string payload));
  run_for net (Psd_sim.Time.sec 10);
  "delivered" => String.equal payload (contents server_sink);
  let st = Tcp.stats net.a.tcp in
  "dup acks seen" => (st.Tcp.dup_acks_in >= 3);
  "fast retransmit fired" => (st.Tcp.fast_rexmt >= 1);
  "receiver reassembled ooo" => ((Tcp.stats net.b.tcp).Tcp.ooo_segs >= 1)

let test_flow_control_zero_window () =
  let net = create () in
  (* Server with a tiny receive buffer that consumes nothing at first. *)
  let server_pcb = ref None in
  let received = Buffer.create 64 in
  let listener = Tcp.listen net.b.tcp ~port:80 () in
  Tcp.on_ready listener (fun () ->
      Psd_sim.Engine.spawn net.eng (fun () ->
          match Tcp.accept_ready listener with
          | Some pcb ->
            server_pcb := Some pcb;
            Tcp.set_handlers pcb
              {
                Tcp.null_handlers with
                Tcp.deliver =
                  (fun _ m -> Buffer.add_string received (Mbuf.to_string m));
              }
          | None -> ()));
  let payload = String.make 100_000 'q' in
  let client_sink = make_sink () in
  let stalled_sndq = ref 0 in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string payload);
      (* give it time to stall against the closed window *)
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.sec 2);
      stalled_sndq := Tcp.sndq_length pcb;
      (* now drain the receiver as data arrives *)
      match !server_pcb with
      | Some spcb ->
        let rec drain () =
          let n = Tcp.rcv_buffered spcb in
          if n > 0 then Tcp.user_consumed spcb n;
          if Buffer.length received < String.length payload then begin
            Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
            drain ()
          end
        in
        drain ()
      | None -> Alcotest.fail "no server pcb");
  run_for net (Psd_sim.Time.sec 120);
  (* sender must have been throttled by the 24KB receive buffer *)
  "sender stalled" => (!stalled_sndq > String.length payload - 30_000);
  "eventually delivered" => (Buffer.length received = String.length payload)

let test_nagle_coalesces () =
  let count_segments nodelay =
    let payload = String.make 400 'n' in
    let chunks = List.init 40 (fun _ -> 10) in
    let net, server, _ = oneway_transfer ~nodelay ~chunks payload in
    "delivered" => String.equal payload (contents server);
    (Tcp.stats net.a.tcp).Tcp.segs_out
  in
  let with_nagle = count_segments false in
  let without_nagle = count_segments true in
  "nagle sends fewer segments" => (with_nagle < without_nagle)

let test_delayed_ack () =
  let payload = String.make 1000 'd' in
  (* single small write: the lone segment's ACK must come from the
     delayed-ack timer *)
  let net, server, _ = oneway_transfer payload in
  "delivered" => String.equal payload (contents server);
  "some acks delayed" => ((Tcp.stats net.b.tcp).Tcp.acks_delayed >= 1)

(* --- teardown ----------------------------------------------------------- *)

let test_graceful_close () =
  let net = create () in
  let server_pcb = ref None in
  let server_sink, _ =
    autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80
  in
  let client_sink = make_sink () in
  let client_pcb = ref None in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      client_pcb := Some pcb;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string "bye");
      Tcp.shutdown_send pcb;
      (* server sees EOF, closes its side too *)
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 50);
      match !server_pcb with
      | Some spcb -> Tcp.shutdown_send spcb
      | None -> Alcotest.fail "no server pcb");
  run_for net (Psd_sim.Time.ms 200);
  "server got data" => String.equal "bye" (contents server_sink);
  "server saw eof" => server_sink.eof;
  "client saw eof" => client_sink.eof;
  (* client entered TIME_WAIT, which expires after 2MSL (100ms here) *)
  run_for net (Psd_sim.Time.sec 2);
  Alcotest.(check int) "a pcbs drained" 0 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b pcbs drained" 0 (Tcp.active_pcbs net.b.tcp)

let test_simultaneous_close () =
  let net = create () in
  let server_pcb = ref None in
  let _, _ = autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      (* both sides close at the same instant *)
      Psd_sim.Engine.spawn net.eng (fun () ->
          match !server_pcb with
          | Some spcb -> Tcp.shutdown_send spcb
          | None -> ());
      Tcp.shutdown_send pcb);
  run_for net (Psd_sim.Time.sec 5);
  Alcotest.(check int) "a drained" 0 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b drained" 0 (Tcp.active_pcbs net.b.tcp)

let test_retransmitted_fin_single_eof () =
  (* Regression: when the ACK of the peer's FIN is lost, the peer
     retransmits the FIN into a state whose rcv_nxt already sits past
     it. That duplicate must re-ACK (and in TIME-WAIT restart 2MSL) —
     it must NOT run the FIN machinery again and hand the application a
     second EOF. *)
  let net = create () in
  let server_pcb = ref None in
  let _sink, _ =
    autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80
  in
  let eofs = ref 0 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let h = sink_handlers client_sink in
      let pcb =
        Tcp.connect net.a.tcp
          ~handlers:{ h with Tcp.deliver_fin = (fun _ -> incr eofs) }
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.shutdown_send pcb;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      (* server closes too; drop the client's ACK of the server FIN so
         the FIN is retransmitted into the client's TIME-WAIT *)
      drop_nth net 2;
      match !server_pcb with
      | Some spcb -> Tcp.shutdown_send spcb
      | None -> ());
  run_for net (Psd_sim.Time.sec 10);
  Alcotest.(check int) "exactly one EOF" 1 !eofs;
  Alcotest.(check int) "no resets" 0 (Tcp.stats net.a.tcp).Tcp.rst_out;
  "server FIN was retransmitted"
  => ((Tcp.stats net.b.tcp).Tcp.rexmt_segs >= 1);
  Alcotest.(check int) "a drained" 0 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b drained" 0 (Tcp.active_pcbs net.b.tcp)

(* Close-sequence property: both ends close — simultaneously or with
   arbitrary skew — over a wire with random per-packet latency
   (reordering) and early random drops (retransmitted FINs arriving in
   states that already processed them). Whatever the interleaving, each
   side must see exactly one EOF, the byte streams must survive intact,
   and both connection tables must drain through TIME-WAIT. *)
let prop_close_sequence =
  QCheck.Test.make ~name:"tcp: both-ends close converges under drop/reorder"
    ~count:25
    QCheck.(triple small_int (int_range 0 15) (int_range 0 50))
    (fun (seed, drop_pct, skew_ms) ->
      let eng = Psd_sim.Engine.create ~seed:(seed + 900) () in
      let a = make_host eng "closer-a" "10.0.0.1" in
      let b = make_host eng "closer-b" "10.0.0.2" in
      let rng =
        Psd_util.Rng.create ~seed:((seed * 37) + (drop_pct * 5) + skew_ms)
      in
      let wire src dst =
        Psd_ip.Ip.set_transmit src.ip (fun ~next_hop:_ ~iface:_ m ->
            let packet = Psd_mbuf.Mbuf.to_bytes m in
            let dropped =
              Psd_sim.Engine.now eng < Psd_sim.Time.sec 3
              && Psd_util.Rng.int rng 100 < drop_pct
            in
            if not dropped then
              let delay = 30_000 + Psd_util.Rng.int rng 60_000 in
              Psd_sim.Engine.schedule eng delay (fun () ->
                  Psd_sim.Engine.spawn eng (fun () ->
                      Psd_ip.Ip.input dst.ip packet ~off:0
                        ~len:(Bytes.length packet))))
      in
      wire a b;
      wire b a;
      let a_eofs = ref 0 and b_eofs = ref 0 in
      let a_got = Buffer.create 64 and b_got = Buffer.create 64 in
      let consumer pcbref eofs got =
        {
          Tcp.null_handlers with
          Tcp.deliver =
            (fun _ m ->
              let n = Mbuf.length m in
              Buffer.add_string got (Mbuf.to_string m);
              Psd_sim.Engine.spawn eng (fun () ->
                  match !pcbref with
                  | Some p -> Tcp.user_consumed p n
                  | None -> ()));
          deliver_fin = (fun _ -> incr eofs);
        }
      in
      let b_pcb = ref None in
      let listener = Tcp.listen b.tcp ~port:80 () in
      Tcp.on_ready listener (fun () ->
          Psd_sim.Engine.spawn eng (fun () ->
              match Tcp.accept_ready listener with
              | None -> ()
              | Some p ->
                b_pcb := Some p;
                Tcp.set_handlers p (consumer b_pcb b_eofs b_got);
                Psd_sim.Engine.spawn eng (fun () ->
                    Tcp.send p (Mbuf.of_string "server-goodbye");
                    Psd_sim.Engine.sleep eng (Psd_sim.Time.ms skew_ms);
                    Tcp.shutdown_send p)));
      let a_pcb = ref None in
      Psd_sim.Engine.spawn eng (fun () ->
          let established = ref false in
          let cond = Psd_sim.Cond.create eng in
          let h = consumer a_pcb a_eofs a_got in
          let p =
            Tcp.connect a.tcp
              ~handlers:
                {
                  h with
                  Tcp.on_established =
                    (fun _ ->
                      established := true;
                      Psd_sim.Cond.broadcast cond);
                }
              ~src_port:5000 ~dst:b.addr ~dst_port:80 ()
          in
          a_pcb := Some p;
          if not !established then Psd_sim.Cond.wait cond;
          Tcp.send p (Mbuf.of_string "client-goodbye");
          Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 25);
          Tcp.shutdown_send p);
      Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 120);
      !a_eofs = 1 && !b_eofs = 1
      && String.equal (Buffer.contents b_got) "client-goodbye"
      && String.equal (Buffer.contents a_got) "server-goodbye"
      && Tcp.active_pcbs a.tcp = 0
      && Tcp.active_pcbs b.tcp = 0)

(* PCB pooling must be observationally invisible: the same randomized
   sequence of connect / exchange / close rounds over a lossy wire,
   run once with the free list enabled and once with it disabled, must
   produce identical byte streams, EOF counts, TCP counters, and
   virtual end times. Reuse makes this nontrivial — a recycled PCB
   must carry nothing from its previous life (timers, sequence state,
   flags), and the generation counter must keep any timer fire armed
   in that previous life dead. Sequential rounds force reuse: each
   round's PCBs drain through TIME_WAIT onto the free list before the
   next round connects. *)
let prop_pool_differential =
  QCheck.Test.make
    ~name:"tcp: pooled and unpooled runs produce identical transcripts"
    ~count:15
    QCheck.(triple small_int (int_range 0 10) (int_range 2 5))
    (fun (seed, drop_pct, rounds) ->
      let run_once pcb_pool =
        let net = create ~seed:(seed + 1300) ~pcb_pool () in
        let rng =
          Psd_util.Rng.create ~seed:((seed * 53) + (drop_pct * 7) + rounds)
        in
        net.tap <- (fun _ -> Psd_util.Rng.int rng 100 < drop_pct);
        let transcript = Buffer.create 256 in
        let server_sink, _ = autoserver net ~close_on_eof:true 80 in
        for r = 0 to rounds - 1 do
          let sink = make_sink () in
          let closed = ref false in
          Psd_sim.Engine.spawn net.eng (fun () ->
              let pcb =
                Tcp.connect net.a.tcp
                  ~handlers:(sink_handlers sink)
                  ~src_port:(5000 + r) ~dst:net.b.addr ~dst_port:80 ()
              in
              Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 30);
              if Tcp.can_send pcb then
                Tcp.send pcb (Mbuf.of_string (Printf.sprintf "round-%d" r));
              Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 30);
              Tcp.shutdown_send pcb;
              closed := true);
          (* bounded drain: on a clean wire both tables empty out
             through TIME_WAIT well inside this window; under drops a
             straggler is fine — both runs see the identical one *)
          let deadline = Psd_sim.Engine.now net.eng + Psd_sim.Time.sec 5 in
          while
            Psd_sim.Engine.now net.eng < deadline
            && not
                 (!closed
                 && Tcp.active_pcbs net.a.tcp = 0
                 && Tcp.active_pcbs net.b.tcp = 0)
          do
            run_for net (Psd_sim.Time.ms 50)
          done;
          Buffer.add_string transcript
            (Printf.sprintf "r%d eof=%b err=%d got=%d@%d " r sink.eof
               (List.length sink.errors)
               (Buffer.length sink.buf)
               (Psd_sim.Engine.now net.eng))
        done;
        let st t =
          let s = Tcp.stats t in
          ( s.Tcp.segs_out,
            s.Tcp.bytes_out,
            s.Tcp.segs_in,
            s.Tcp.bytes_in,
            s.Tcp.rexmt_segs,
            s.Tcp.rst_out )
        in
        ( ( Buffer.contents transcript,
            contents server_sink,
            server_sink.eof,
            st net.a.tcp,
            st net.b.tcp,
            Tcp.active_pcbs net.a.tcp,
            Tcp.active_pcbs net.b.tcp,
            Psd_sim.Engine.now net.eng ),
          Tcp.pool_stats net.a.tcp )
      in
      let pooled, (_, p_hits, p_puts, p_free) = run_once 1024 in
      let unpooled, (_, u_hits, u_puts, _) = run_once 0 in
      pooled = unpooled
      && p_free = p_puts - p_hits
      && u_hits = 0 && u_puts = 0
      (* reuse actually exercised: on a clean wire every round after
         the first connects out of the free list *)
      && (drop_pct > 0 || p_hits > 0))

let test_abort_resets_peer () =
  let net = create () in
  let server_sink, _ = autoserver net 80 in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.abort pcb);
  run_for net (Psd_sim.Time.ms 100);
  "server reset" => (server_sink.errors = [ Tcp.Reset ]);
  Alcotest.(check int) "a drained" 0 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b drained" 0 (Tcp.active_pcbs net.b.tcp)

(* --- migration ----------------------------------------------------------- *)

let test_export_import_same_stack_roundtrip () =
  (* Sanity: export then immediately import into the same instance. *)
  let net = create () in
  let server_pcb = ref None in
  let server_sink, _ =
    autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80
  in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.send pcb (Mbuf.of_string "before-");
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 50);
      (* migrate the CLIENT side *)
      let snap = Tcp.export pcb in
      let pcb' =
        Tcp.import net.a.tcp ~handlers:(sink_handlers client_sink) snap
      in
      Alcotest.(check int) "port survives" 5000 (Tcp.local_port pcb');
      Tcp.send pcb' (Mbuf.of_string "after");
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 50);
      Tcp.shutdown_send pcb');
  run_for net (Psd_sim.Time.sec 2);
  (* "before-" was acknowledged before the export, so the stream is
     continuous only if the imported sequence state carried on *)
  Alcotest.(check string) "continuity" "before-after" (contents server_sink);
  "eof" => server_sink.eof

(* The snapshot is the pcb in transit: it is imported once, and never
   into a stack that already holds a connection with its endpoints. *)
let test_import_guards () =
  let net = create () in
  let server_pcbs = ref [] in
  let _server_sink, _ =
    autoserver net ~rcv_assign:(fun p -> server_pcbs := p :: !server_pcbs) 80
  in
  let refused name f =
    match f () with
    | (_ : Tcp.pcb) -> Alcotest.failf "%s: import accepted" name
    | exception Invalid_argument _ -> ()
  in
  let finished = ref false in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let connect () =
        Tcp.connect net.a.tcp ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      let pcb = connect () in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      let snap = Tcp.export pcb in
      let pcb = Tcp.import net.a.tcp ~handlers:Tcp.null_handlers snap in
      (* b holds no connection with the client's endpoints *)
      refused "second import" (fun () ->
          Tcp.import net.b.tcp ~handlers:Tcp.null_handlers snap);
      let server_snap =
        match !server_pcbs with
        | [ p ] -> Tcp.export p
        | _ -> Alcotest.fail "not accepted"
      in
      (* the reset lands in b's quench; once it expires, the same
         endpoints connect again *)
      Tcp.abort pcb;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 1100);
      let (_ : Tcp.pcb) = connect () in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Alcotest.(check int) "reconnected" 2 (List.length !server_pcbs);
      refused "key held" (fun () ->
          Tcp.import net.b.tcp ~handlers:Tcp.null_handlers server_snap);
      finished := true);
  run_for net (Psd_sim.Time.sec 3);
  "finished" => !finished

let test_migration_between_stacks () =
  (* The paper's core mechanism: a connection established in one stack
     (the OS server) continues in another (the application library).
     Host B runs two stacks sharing address 10.0.0.2; a dispatch ref
     plays the role of the packet filter. *)
  let eng = Psd_sim.Engine.create () in
  let a = make_host eng "client" "10.0.0.1" in
  let b1 = make_host eng "b-server-stack" "10.0.0.2" in
  let b2 = make_host eng "b-app-stack" "10.0.0.2" in
  let b_active = ref b1 in
  let tap = ref (fun _ -> false) in
  Psd_ip.Ip.set_transmit a.ip (fun ~next_hop:_ ~iface:_ m ->
      let packet = Psd_mbuf.Mbuf.to_bytes m in
      if not (!tap packet) then
        Psd_sim.Engine.schedule eng 50_000 (fun () ->
            Psd_sim.Engine.spawn eng (fun () ->
                Psd_ip.Ip.input !b_active.ip packet ~off:0
                  ~len:(Bytes.length packet))));
  let to_a host =
    Psd_ip.Ip.set_transmit host.ip (fun ~next_hop:_ ~iface:_ m ->
        let packet = Psd_mbuf.Mbuf.to_bytes m in
        Psd_sim.Engine.schedule eng 50_000 (fun () ->
            Psd_sim.Engine.spawn eng (fun () ->
                Psd_ip.Ip.input a.ip packet ~off:0 ~len:(Bytes.length packet))))
  in
  to_a b1;
  to_a b2;
  let server_sink = make_sink () in
  let b1_pcb = ref None in
  let listener = Tcp.listen b1.tcp ~port:80 () in
  Tcp.on_ready listener (fun () ->
      Psd_sim.Engine.spawn eng (fun () ->
          match Tcp.accept_ready listener with
          | Some p ->
            Tcp.set_handlers p (sink_handlers server_sink);
            b1_pcb := Some p
          | None -> ()));
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn eng (fun () ->
      let pcb =
        Tcp.connect a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:(Psd_ip.Addr.of_string "10.0.0.2") ~dst_port:80
          ()
      in
      Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string "one,");
      Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 30);
      (* --- migrate the server-side session from b1 to b2 --- *)
      (match !b1_pcb with
      | Some p ->
        let snap = Tcp.export p in
        let p' = Tcp.import b2.tcp ~handlers:(sink_handlers server_sink) snap in
        b_active := b2;
        ignore p'
      | None -> Alcotest.fail "not accepted yet");
      (* continue the conversation: data must flow into the new stack *)
      Tcp.send pcb (Mbuf.of_string "two,");
      Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 30);
      Tcp.send pcb (Mbuf.of_string "three");
      Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 30);
      Tcp.shutdown_send pcb);
  Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 2);
  Alcotest.(check string) "stream continuity across migration" "one,two,three"
    (contents server_sink);
  "eof in new stack" => server_sink.eof;
  Alcotest.(check int) "b1 released the session" 0 (Tcp.active_pcbs b1.tcp);
  Alcotest.(check int) "b2 owns the session" 1 (Tcp.active_pcbs b2.tcp)

let test_migration_with_unacked_data () =
  (* Export while data is in flight/unacked: the importing stack must
     retransmit from its own timers. *)
  let net = create () in
  let server_sink, _ = autoserver net 80 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      (* drop everything while we send, so data stays unacked *)
      net.tap <- (fun _ -> true);
      Tcp.send pcb (Mbuf.of_string "resilient");
      (* export with the data unacknowledged *)
      let snap = Tcp.export pcb in
      net.tap <- (fun _ -> false);
      let pcb' =
        Tcp.import net.a.tcp ~handlers:(sink_handlers client_sink) snap
      in
      ignore pcb');
  run_for net (Psd_sim.Time.sec 10);
  (* every copy of "resilient" on the wire was dropped: it can only
     arrive from the send queue the snapshot carried *)
  "data arrives after re-import" => String.equal "resilient" (contents server_sink)

(* --- property: arbitrary chunking preserves the stream ------------------ *)

let prop_stream_integrity =
  QCheck.Test.make ~name:"tcp: chunked sends preserve byte stream" ~count:15
    QCheck.(
      pair small_int (list_of_size Gen.(1 -- 12) (int_range 1 4000)))
    (fun (seed, sizes) ->
      let total = List.fold_left ( + ) 0 sizes in
      let payload = String.init total (fun i -> Char.chr (i * 13 mod 256)) in
      let _, server, _ =
        oneway_transfer ~seed:(seed + 1) ~chunks:sizes payload
      in
      String.equal payload (contents server) && server.eof)

(* --- window probing / teardown corners ----------------------------------- *)

let test_persist_probes_zero_window () =
  (* Receiver never consumes: the window closes; the sender must probe
     (persist timer) rather than deadlock, and resume when it reopens. *)
  let net = create () in
  let server_pcb = ref None in
  let received = Buffer.create 64 in
  let listener = Tcp.listen net.b.tcp ~port:80 () in
  Tcp.on_ready listener (fun () ->
      Psd_sim.Engine.spawn net.eng (fun () ->
          match Tcp.accept_ready listener with
          | Some pcb ->
            server_pcb := Some pcb;
            Tcp.set_handlers pcb
              {
                Tcp.null_handlers with
                Tcp.deliver =
                  (fun _ m -> Buffer.add_string received (Mbuf.to_string m));
              }
          | None -> ()));
  let payload = String.make 60_000 'w' in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 10);
      Tcp.send pcb (Mbuf.of_string payload);
      (* stall long enough for several persist intervals *)
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.sec 3);
      (* receiver wakes up and drains *)
      match !server_pcb with
      | Some spcb ->
        let rec drain () =
          let n = Tcp.rcv_buffered spcb in
          if n > 0 then Tcp.user_consumed spcb n;
          if Buffer.length received < String.length payload then begin
            Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
            drain ()
          end
        in
        drain ()
      | None -> Alcotest.fail "no server pcb");
  run_for net (Psd_sim.Time.sec 120);
  "all delivered after window reopened"
  => (Buffer.length received = String.length payload);
  (* while stalled, the sender emitted window probes *)
  "probes or retransmissions occurred"
  => ((Tcp.stats net.a.tcp).Tcp.rexmt_segs >= 1
     || (Tcp.stats net.a.tcp).Tcp.segs_out > 50)

let test_time_wait_handles_duplicate_fin () =
  (* Drop the client's final ACK once: the server retransmits its FIN and
     the client's TIME_WAIT must re-ACK it rather than RST. *)
  let net = create () in
  let server_pcb = ref None in
  let _sink, _ = autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 80 in
  let client_sink = make_sink () in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.shutdown_send pcb;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      (* server closes too; drop the client's ACK of the server FIN *)
      drop_nth net 2;
      (match !server_pcb with
      | Some spcb -> Tcp.shutdown_send spcb
      | None -> ()));
  run_for net (Psd_sim.Time.sec 10);
  Alcotest.(check int) "no resets" 0 (Tcp.stats net.a.tcp).Tcp.rst_out;
  Alcotest.(check int) "a drained" 0 (Tcp.active_pcbs net.a.tcp);
  Alcotest.(check int) "b drained" 0 (Tcp.active_pcbs net.b.tcp)

(* [export] quenches the stack it leaves for 1 s: a segment for the
   exported connection is dropped silently (it is in flight to the
   session's new home) until the quench expires, and then draws a
   reset like any segment for a connection nobody holds. *)
let test_export_quench_expires () =
  let net = create () in
  let server_pcb = ref None in
  let _server_sink, listener =
    autoserver net ~rcv_assign:(fun p -> server_pcb := Some p) 2222
  in
  (* a stray segment for the exported connection *)
  let stray () =
    let seg =
      {
        Segment.src_port = 1111;
        dst_port = 2222;
        seq = 500;
        ack = 0;
        flags = { Segment.no_flags with Segment.ack = true };
        window = 1000;
        mss = None;
      }
    in
    let packet =
      Segment.encode seg ~src:net.a.addr ~dst:net.b.addr
        ~payload:(Mbuf.empty ())
    in
    ignore
      (Psd_ip.Ip.output net.a.ip ~proto:Psd_ip.Header.proto_tcp
         ~dst:net.b.addr packet)
  in
  let finished = ref false in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let client =
        Tcp.connect net.a.tcp ~src_port:1111 ~dst:net.b.addr ~dst_port:2222
          ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.close_listener net.b.tcp listener;
      (match !server_pcb with
      | Some p -> ignore (Tcp.export p : Tcp.snapshot)
      | None -> Alcotest.fail "not accepted");
      (* the client goes too, so no reply to a reset reaches b; its own
         reset is the first segment the quench swallows *)
      Tcp.abort client;
      stray ();
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 50);
      Alcotest.(check int) "muted: no rst" 0
        (Tcp.stats net.b.tcp).Tcp.rst_out;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.sec 1);
      stray ();
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 50);
      Alcotest.(check int) "mute expired: rst" 1
        (Tcp.stats net.b.tcp).Tcp.rst_out;
      finished := true);
  run_for net (Psd_sim.Time.sec 2);
  "finished" => !finished

(* --- keepalive ---------------------------------------------------------- *)

let test_keepalive_detects_dead_peer () =
  let net =
    create ~keep_idle_ns:(Psd_sim.Time.ms 100)
      ~keep_interval_ns:(Psd_sim.Time.ms 50) ~keep_max_probes:3 ()
  in
  let client_sink = make_sink () in
  let _server_sink, _ = autoserver net 80 in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.set_keepalive pcb true;
      (* the peer silently disappears *)
      net.tap <- (fun _ -> true));
  run_for net (Psd_sim.Time.sec 10);
  "dead peer detected" => (client_sink.errors = [ Tcp.Timed_out ]);
  Alcotest.(check int) "pcb reaped" 0 (Tcp.active_pcbs net.a.tcp)

let test_keepalive_keeps_healthy_connection () =
  let net =
    create ~keep_idle_ns:(Psd_sim.Time.ms 100)
      ~keep_interval_ns:(Psd_sim.Time.ms 50) ~keep_max_probes:3 ()
  in
  let client_sink = make_sink () in
  let _server_sink, _ = autoserver net 80 in
  let pcb_ref = ref None in
  Psd_sim.Engine.spawn net.eng (fun () ->
      let pcb =
        Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
          ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
      in
      pcb_ref := Some pcb;
      Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 20);
      Tcp.set_keepalive pcb true);
  (* idle far beyond the probe budget: probes are answered, so the
     connection must survive *)
  run_for net (Psd_sim.Time.sec 5);
  "no errors" => (client_sink.errors = []);
  (match !pcb_ref with
  | Some pcb -> "still established" => (Tcp.state pcb = Tcp.Established)
  | None -> Alcotest.fail "no pcb");
  "probes were exchanged" => ((Tcp.stats net.a.tcp).Tcp.segs_out > 10)

(* The paper-core property: exporting a live connection at an arbitrary
   moment mid-transfer and importing it into a different stack never
   corrupts or loses the byte stream. *)
let prop_migration_at_random_time =
  QCheck.Test.make ~name:"tcp: migration at any moment preserves the stream"
    ~count:10
    QCheck.(int_range 1 120)
    (fun migrate_at_ms ->
      let eng = Psd_sim.Engine.create ~seed:migrate_at_ms () in
      let a = make_host eng "client" "10.0.0.1" in
      let b1 = make_host eng "b-first" "10.0.0.2" in
      let b2 = make_host eng "b-second" "10.0.0.2" in
      let b_active = ref b1 in
      Psd_ip.Ip.set_transmit a.ip (fun ~next_hop:_ ~iface:_ m ->
          let packet = Psd_mbuf.Mbuf.to_bytes m in
          Psd_sim.Engine.schedule eng 50_000 (fun () ->
              Psd_sim.Engine.spawn eng (fun () ->
                  Psd_ip.Ip.input !b_active.ip packet ~off:0
                    ~len:(Bytes.length packet))));
      let to_a host =
        Psd_ip.Ip.set_transmit host.ip (fun ~next_hop:_ ~iface:_ m ->
            let packet = Psd_mbuf.Mbuf.to_bytes m in
            Psd_sim.Engine.schedule eng 50_000 (fun () ->
                Psd_sim.Engine.spawn eng (fun () ->
                    Psd_ip.Ip.input a.ip packet ~off:0
                      ~len:(Bytes.length packet))))
      in
      to_a b1;
      to_a b2;
      let payload =
        String.init 120_000 (fun i -> Char.chr ((i * 13 + migrate_at_ms) mod 256))
      in
      let received = Buffer.create 1024 in
      let b_pcb = ref None in
      let wire_consumer pcb =
        {
          Tcp.null_handlers with
          Tcp.deliver =
            (fun _ m ->
              Buffer.add_string received (Mbuf.to_string m);
              let n = Mbuf.length m in
              Psd_sim.Engine.spawn eng (fun () -> Tcp.user_consumed pcb n));
        }
      in
      let listener = Tcp.listen b1.tcp ~port:80 () in
      Tcp.on_ready listener (fun () ->
          Psd_sim.Engine.spawn eng (fun () ->
              match Tcp.accept_ready listener with
              | Some p ->
                b_pcb := Some p;
                Tcp.set_handlers p (wire_consumer p)
              | None -> ()));
      Psd_sim.Engine.spawn eng (fun () ->
          let pcb =
            Tcp.connect a.tcp ~src_port:5000
              ~dst:(Psd_ip.Addr.of_string "10.0.0.2") ~dst_port:80 ()
          in
          Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 5);
          Tcp.send pcb (Mbuf.of_string payload));
      (* migrate the receiver at the chosen instant, mid-flight *)
      Psd_sim.Engine.schedule eng (Psd_sim.Time.ms migrate_at_ms) (fun () ->
          Psd_sim.Engine.spawn eng (fun () ->
              match !b_pcb with
              | Some p when Tcp.state p <> Tcp.Closed ->
                let snap = Tcp.export p in
                (* handlers must be live at import time (buffered data is
                   re-delivered through them); consumption is deferred so
                   the pcb ref is filled in by then *)
                let pcb_ref = ref None in
                let handlers =
                  {
                    Tcp.null_handlers with
                    Tcp.deliver =
                      (fun _ m ->
                        Buffer.add_string received (Mbuf.to_string m);
                        let n = Mbuf.length m in
                        Psd_sim.Engine.spawn eng (fun () ->
                            match !pcb_ref with
                            | Some p' -> Tcp.user_consumed p' n
                            | None -> ()));
                  }
                in
                let p' = Tcp.import b2.tcp ~handlers snap in
                pcb_ref := Some p';
                b_pcb := Some p';
                b_active := b2
              | _ -> ()));
      Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 120);
      String.equal (Buffer.contents received) payload)

(* Random bidirectional traffic under probabilistic loss: every byte must
   arrive, in order, in both directions, despite drops. *)
let prop_bidirectional_with_loss =
  QCheck.Test.make ~name:"tcp: bidirectional stream survives random loss"
    ~count:8
    QCheck.(pair small_int (int_range 0 15))
    (fun (seed, drop_pct) ->
      let net = create ~seed:(seed + 100) () in
      (* deterministic loss process over the wire *)
      let rng = Psd_util.Rng.create ~seed:(seed * 31 + 7) in
      net.tap <- (fun _ -> Psd_util.Rng.int rng 100 < drop_pct);
      let a_to_b = String.init 30_000 (fun i -> Char.chr (i mod 256)) in
      let b_to_a = String.init 22_000 (fun i -> Char.chr ((i * 3) mod 256)) in
      let server_sink = make_sink () in
      let client_sink = make_sink () in
      (* server: consume and also transmit its own stream *)
      let listener = Tcp.listen net.b.tcp ~port:80 () in
      Tcp.on_ready listener (fun () ->
          Psd_sim.Engine.spawn net.eng (fun () ->
              match Tcp.accept_ready listener with
              | None -> ()
              | Some pcb ->
                let h = sink_handlers server_sink in
                Tcp.set_handlers pcb
                  {
                    h with
                    Tcp.deliver =
                      (fun _ m ->
                        let n = Mbuf.length m in
                        Buffer.add_string server_sink.buf (Mbuf.to_string m);
                        Psd_sim.Engine.spawn net.eng (fun () ->
                            Tcp.user_consumed pcb n));
                  };
                Tcp.send pcb (Mbuf.of_string b_to_a)));
      Psd_sim.Engine.spawn net.eng (fun () ->
          let pcb =
            Tcp.connect net.a.tcp ~src_port:5000 ~dst:net.b.addr ~dst_port:80
              ()
          in
          let h = sink_handlers client_sink in
          Tcp.set_handlers pcb
            {
              h with
              Tcp.deliver =
                (fun _ m ->
                  let n = Mbuf.length m in
                  Buffer.add_string client_sink.buf (Mbuf.to_string m);
                  Psd_sim.Engine.spawn net.eng (fun () ->
                      Tcp.user_consumed pcb n));
            };
          Psd_sim.Engine.sleep net.eng (Psd_sim.Time.ms 5);
          Tcp.send pcb (Mbuf.of_string a_to_b));
      run_for net (Psd_sim.Time.sec 300);
      String.equal (contents server_sink) a_to_b
      && String.equal (contents client_sink) b_to_a)

(* --- drop accounting --------------------------------------------------- *)

(* One data segment mangled in flight lands in exactly one drop counter
   of the receiving stack: payload damage in [drop_checksum], framing
   damage (an impossible data offset) in [drop_malformed] — and the
   retransmission still delivers the data. *)
let test_drop_accounting_classes () =
  let net = create () in
  let sink, _l = autoserver net 80 in
  let client_sink = make_sink () in
  let pcb = ref None in
  Psd_sim.Engine.spawn net.eng (fun () ->
      pcb :=
        Some
          (Tcp.connect net.a.tcp ~handlers:(sink_handlers client_sink)
             ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()));
  run_for net (Psd_sim.Time.ms 20);
  "established" => client_sink.established;
  let is_data packet =
    (* only a data segment is longer than bare IP + TCP headers *)
    Bytes.length packet > Psd_ip.Header.size + Segment.base_size
  in
  let mangle = ref None in
  net.tap <-
    (fun packet ->
      (match !mangle with
      | Some f when is_data packet ->
        mangle := None;
        f packet
      | _ -> ());
      false);
  let send_mangled data f =
    mangle := Some f;
    Psd_sim.Engine.spawn net.eng (fun () ->
        Tcp.send (Option.get !pcb) (Mbuf.of_string data));
    run_for net (Psd_sim.Time.sec 10)
  in
  (* flip a payload byte: IP's header checksum doesn't cover it, so it
     reaches TCP and must die as a checksum drop *)
  send_mangled "hello" (fun packet ->
      let off = Psd_ip.Header.size + Segment.base_size in
      Bytes.set_uint8 packet off (Bytes.get_uint8 packet off lxor 0xff));
  (* wreck the data offset: framing damage, not a checksum miss *)
  send_mangled "world" (fun packet ->
      Bytes.set_uint8 packet (Psd_ip.Header.size + 12) 0xf0);
  let st = Tcp.stats net.b.tcp in
  Alcotest.(check int) "one checksum drop" 1 st.Tcp.drop_checksum;
  Alcotest.(check int) "one malformed drop" 1 st.Tcp.drop_malformed;
  Alcotest.(check string) "rexmt delivered both" "helloworld"
    (Buffer.contents sink.buf)

(* --- hostile input --------------------------------------------------- *)

(* Store the TCP checksum that makes the [len]-byte segment at [off]
   verify, as a sender would have computed it. *)
let fix_checksum b ~off ~len ~src ~dst =
  Psd_util.Codec.set_u16 b (off + 16) 0;
  let acc =
    Psd_ip.Header.pseudo_checksum ~src ~dst ~proto:Psd_ip.Header.proto_tcp
      ~len
  in
  Psd_util.Codec.set_u16 b (off + 16)
    (Psd_util.Checksum.finish (Psd_util.Checksum.add_bytes acc b ~off ~len))

(* [Segment.decode] over arbitrary bytes and any view of them never
   raises. The header alone decides the outcome: [Truncated] under 20
   bytes, [Bad_offset] for a data offset under 20 or past the view,
   otherwise [Ok] with every field read from the view and the payload
   the bytes after the data offset — or [Bad_checksum] until the
   checksum is fixed up. *)
let prop_decode_total =
  QCheck.Test.make ~name:"tcp: Segment.decode is total" ~count:5000
    QCheck.(triple (string_of_size Gen.(0 -- 96)) small_nat small_nat)
    (fun (s, o, l) ->
      let src = Psd_ip.Addr.of_string "10.0.0.1"
      and dst = Psd_ip.Addr.of_string "10.0.0.2" in
      let b = Bytes.of_string s in
      let off = o mod (Bytes.length b + 1) in
      let len = l mod (Bytes.length b - off + 1) in
      let hlen =
        if len < 20 then 0 else Bytes.get_uint8 b (off + 12) lsr 4 * 4
      in
      let expect r =
        match r with
        | Error Segment.Truncated -> len < 20
        | Error Segment.Bad_offset -> len >= 20 && (hlen < 20 || hlen > len)
        | Error Segment.Bad_checksum -> false
        | Ok (seg, payload) ->
          let g16 i = Psd_util.Codec.get_u16 b (off + i)
          and g32 i = Psd_util.Codec.get_u32i b (off + i) in
          let fl = Bytes.get_uint8 b (off + 13) in
          let f = seg.Segment.flags in
          len >= 20 && hlen >= 20 && hlen <= len
          && seg.Segment.src_port = g16 0
          && seg.Segment.dst_port = g16 2
          && seg.Segment.seq = g32 4
          && seg.Segment.ack = g32 8
          && seg.Segment.window = g16 14
          && f.Segment.fin = (fl land 0x01 <> 0)
          && f.Segment.syn = (fl land 0x02 <> 0)
          && f.Segment.rst = (fl land 0x04 <> 0)
          && f.Segment.psh = (fl land 0x08 <> 0)
          && f.Segment.ack = (fl land 0x10 <> 0)
          && f.Segment.urg = (fl land 0x20 <> 0)
          && (f.Segment.syn || seg.Segment.mss = None)
          && Mbuf.to_string payload
             = Bytes.sub_string b (off + hlen) (len - hlen)
      in
      let decode () = Segment.decode b ~off ~len ~src ~dst in
      let raw =
        match decode () with
        | Error Segment.Bad_checksum -> hlen >= 20 && hlen <= len
        | r -> expect r
      in
      if len >= 20 then fix_checksum b ~off ~len ~src ~dst;
      raw && expect (decode ()))

(* Mangle one header field of an IP packet carrying TCP — seq, ack,
   flags, window or data offset — and fix the TCP checksum up, so the
   damage reaches the state machine instead of dying in decode. Sequence
   numbers move by a small step half the time (landing near the window
   edges) and anywhere in the space otherwise. *)
let mangle_tcp rng packet =
  let ip = Psd_ip.Header.size in
  let rand n = Psd_util.Rng.int rng n in
  let nudge i =
    let v = Psd_util.Codec.get_u32i packet (ip + i) in
    let v =
      if Int64.logand (Psd_util.Rng.next rng) 1L = 1L then v + rand 6000 - 3000
      else (rand 0x10000 lsl 16) lor rand 0x10000
    in
    Psd_util.Codec.set_u32i packet (ip + i) (v land 0xffffffff)
  in
  (match rand 5 with
  | 0 -> nudge 4
  | 1 -> nudge 8
  | 2 ->
    Bytes.set_uint8 packet (ip + 13)
      (Bytes.get_uint8 packet (ip + 13) lxor (1 + rand 63))
  | 3 -> Psd_util.Codec.set_u16 packet (ip + 14) (rand 0x10000)
  | _ -> Bytes.set_uint8 packet (ip + 12) (rand 16 lsl 4));
  fix_checksum packet ~off:ip
    ~len:(Bytes.length packet - ip)
    ~src:(Psd_util.Codec.get_u32i packet 12)
    ~dst:(Psd_util.Codec.get_u32i packet 16)

(* A transfer whose wire mangles a random share of TCP headers (checksum
   fixed up) must not raise out of the engine, must account for every
   TCP packet delivered to a stack as exactly one of [segs_in],
   [drop_checksum] or [drop_malformed], and — once both applications
   have closed, aborting whatever is still open after the transfer
   window, and the run has gone idle — must leave no PCB behind. *)
let prop_hostile_wire =
  QCheck.Test.make ~name:"tcp: mangled headers never raise, miscount or leak"
    ~count:200
    QCheck.(triple small_int (int_range 1 50) (int_range 0 60_000))
    (fun (seed, pct, size) ->
      let net = create ~seed:(seed + 2100) () in
      let rng = Psd_util.Rng.create ~seed:((seed * 61) + pct) in
      let to_a = ref 0 and to_b = ref 0 in
      net.tap <-
        (fun packet ->
          if Bytes.get_uint8 packet 9 = Psd_ip.Header.proto_tcp then begin
            if Psd_util.Rng.int rng 100 < pct then mangle_tcp rng packet;
            if Psd_util.Codec.get_u32i packet 16 = net.b.addr then incr to_b
            else incr to_a
          end;
          false);
      let accepted = ref [] in
      let listener = Tcp.listen net.b.tcp ~port:80 () in
      Tcp.on_ready listener (fun () ->
          Psd_sim.Engine.spawn net.eng (fun () ->
              match Tcp.accept_ready listener with
              | None -> ()
              | Some p ->
                accepted := p :: !accepted;
                Tcp.set_handlers p
                  {
                    Tcp.null_handlers with
                    Tcp.deliver =
                      (fun _ m ->
                        let n = Mbuf.length m in
                        Psd_sim.Engine.spawn net.eng (fun () ->
                            Tcp.user_consumed p n));
                    deliver_fin =
                      (fun _ ->
                        Psd_sim.Engine.spawn net.eng (fun () ->
                            Tcp.shutdown_send p));
                  }));
      let client = ref None in
      Psd_sim.Engine.spawn net.eng (fun () ->
          let cond = Psd_sim.Cond.create net.eng in
          let settled = ref false in
          let wake _ =
            settled := true;
            Psd_sim.Cond.broadcast cond
          in
          let pcb =
            Tcp.connect net.a.tcp
              ~handlers:
                {
                  Tcp.null_handlers with
                  Tcp.on_established = wake;
                  on_error = (fun p _ -> wake p);
                }
              ~src_port:5000 ~dst:net.b.addr ~dst_port:80 ()
          in
          client := Some pcb;
          if not !settled then Psd_sim.Cond.wait cond;
          if Tcp.can_send pcb then begin
            Tcp.send pcb (Mbuf.of_string (String.make size 'h'));
            Tcp.shutdown_send pcb
          end);
      run_for net (Psd_sim.Time.sec 60);
      (* the applications close: abort whatever is still open *)
      Psd_sim.Engine.spawn net.eng (fun () ->
          Option.iter Tcp.abort !client;
          List.iter Tcp.abort !accepted;
          Tcp.close_listener net.b.tcp listener);
      (* run to idle; a run still busy after an hour of virtual time is
         a hang *)
      let deadline = Psd_sim.Engine.now net.eng + Psd_sim.Time.sec 3600 in
      while
        Psd_sim.Engine.next_key net.eng <> max_int
        && Psd_sim.Engine.now net.eng < deadline
      do
        run_for net (Psd_sim.Time.sec 10)
      done;
      let accounted t =
        let st = Tcp.stats t in
        st.Tcp.segs_in + st.Tcp.drop_checksum + st.Tcp.drop_malformed
      in
      Psd_sim.Engine.next_key net.eng = max_int
      && Psd_sim.Engine.failures net.eng = []
      && accounted net.a.tcp = !to_a
      && accounted net.b.tcp = !to_b
      && Tcp.active_pcbs net.a.tcp = 0
      && Tcp.active_pcbs net.b.tcp = 0)

let () =
  Alcotest.run "psd_tcp"
    [
      ( "drop accounting",
        [ Alcotest.test_case "checksum vs malformed" `Quick
            test_drop_accounting_classes ] );
      ( "hostile",
        [
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_hostile_wire;
        ] );
      ( "seq",
        [
          Alcotest.test_case "wraparound" `Quick test_seq_wraparound;
          Alcotest.test_case "in_window" `Quick test_seq_in_window;
          QCheck_alcotest.to_alcotest prop_seq_ordering;
        ] );
      ( "segment",
        [
          Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
          Alcotest.test_case "mss option" `Quick test_segment_mss_option;
          Alcotest.test_case "checksum" `Quick test_segment_checksum_detects;
          Alcotest.test_case "error classes" `Quick test_decode_error_classes;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "three-way" `Quick test_handshake;
          Alcotest.test_case "refused" `Quick test_connect_refused;
          Alcotest.test_case "syn loss" `Quick test_handshake_with_syn_loss;
          Alcotest.test_case "simultaneous open" `Quick
            test_simultaneous_open;
          Alcotest.test_case "backlog" `Quick test_backlog_limit;
        ] );
      ( "data",
        [
          Alcotest.test_case "small" `Quick test_small_transfer;
          Alcotest.test_case "empty+close" `Quick test_empty_close;
          Alcotest.test_case "large 200KB" `Quick test_large_transfer;
          Alcotest.test_case "mss" `Quick test_mss_respected;
          Alcotest.test_case "echo" `Quick test_echo_bidirectional;
          Alcotest.test_case "loss+rto" `Quick test_data_loss_retransmit;
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
          Alcotest.test_case "flow control" `Quick
            test_flow_control_zero_window;
          Alcotest.test_case "nagle" `Quick test_nagle_coalesces;
          Alcotest.test_case "delayed ack" `Quick test_delayed_ack;
          QCheck_alcotest.to_alcotest prop_stream_integrity;
          QCheck_alcotest.to_alcotest prop_bidirectional_with_loss;
        ] );
      ( "migration-property",
        [ QCheck_alcotest.to_alcotest prop_migration_at_random_time ] );
      ( "teardown",
        [
          Alcotest.test_case "graceful" `Quick test_graceful_close;
          Alcotest.test_case "simultaneous" `Quick test_simultaneous_close;
          Alcotest.test_case "retransmitted fin single eof" `Quick
            test_retransmitted_fin_single_eof;
          Alcotest.test_case "abort" `Quick test_abort_resets_peer;
          QCheck_alcotest.to_alcotest prop_close_sequence;
          QCheck_alcotest.to_alcotest prop_pool_differential;
        ] );
      ( "corners",
        [
          Alcotest.test_case "persist probes" `Quick
            test_persist_probes_zero_window;
          Alcotest.test_case "time_wait dup fin" `Quick
            test_time_wait_handles_duplicate_fin;
          Alcotest.test_case "mute expiry" `Quick test_export_quench_expires;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "dead peer" `Quick
            test_keepalive_detects_dead_peer;
          Alcotest.test_case "healthy peer" `Quick
            test_keepalive_keeps_healthy_connection;
        ] );
      ( "migration",
        [
          Alcotest.test_case "export/import" `Quick
            test_export_import_same_stack_roundtrip;
          Alcotest.test_case "across stacks" `Quick
            test_migration_between_stacks;
          Alcotest.test_case "with unacked data" `Quick
            test_migration_with_unacked_data;
          Alcotest.test_case "import guards" `Quick test_import_guards;
        ] );
    ]
