open Psd_ip
open Psd_mbuf

let addr = Addr.of_string

(* --- Addr ------------------------------------------------------------ *)

let test_addr_parse () =
  Alcotest.(check int) "octets" 0x0a000001 (Addr.to_int (addr "10.0.0.1"));
  Alcotest.(check string) "pp" "10.0.0.1" (Addr.to_string (addr "10.0.0.1"));
  Alcotest.(check string) "broadcast" "255.255.255.255"
    (Addr.to_string Addr.broadcast)

let test_addr_parse_errors () =
  List.iter
    (fun s ->
      match Addr.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "10.0.0"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "-1.0.0.0" ]

let test_addr_subnet () =
  Alcotest.(check bool) "in" true
    (Addr.in_subnet (addr "10.0.5.7") ~net:(addr "10.0.0.0")
       ~mask:(addr "255.255.0.0"));
  Alcotest.(check bool) "out" false
    (Addr.in_subnet (addr "10.1.5.7") ~net:(addr "10.0.0.0")
       ~mask:(addr "255.255.0.0"))

(* --- Header ----------------------------------------------------------- *)

let sample_header () =
  {
    Header.src = addr "10.0.0.1";
    dst = addr "10.0.0.2";
    proto = Header.proto_udp;
    ttl = 64;
    ident = 777;
    dont_frag = false;
    more_frags = false;
    frag_off = 0;
    total_len = Header.size + 100;
  }

let test_header_roundtrip () =
  let h = sample_header () in
  let b = Bytes.make 40 '\xaa' in
  Header.encode_into b ~off:4 h;
  match Header.decode b ~off:4 ~len:(Header.size + 100) with
  | Error e -> Alcotest.failf "decode: %a" Header.pp_error e
  | Ok h' ->
    Alcotest.(check bool) "src" true (Addr.equal h.Header.src h'.Header.src);
    Alcotest.(check bool) "dst" true (Addr.equal h.Header.dst h'.Header.dst);
    Alcotest.(check int) "proto" h.Header.proto h'.Header.proto;
    Alcotest.(check int) "ident" h.Header.ident h'.Header.ident;
    Alcotest.(check int) "total" h.Header.total_len h'.Header.total_len

let test_header_frag_fields () =
  let h =
    { (sample_header ()) with Header.more_frags = true; frag_off = 1480 }
  in
  let b = Bytes.create (Header.size + 100) in
  Header.encode_into b ~off:0 h;
  match Header.decode b ~off:0 ~len:(Bytes.length b) with
  | Ok h' ->
    Alcotest.(check bool) "mf" true h'.Header.more_frags;
    Alcotest.(check int) "off" 1480 h'.Header.frag_off
  | Error e -> Alcotest.failf "decode: %a" Header.pp_error e

let test_header_checksum_detects_corruption () =
  let b = Bytes.create Header.size in
  Header.encode_into b ~off:0 { (sample_header ()) with Header.total_len = 20 };
  Psd_util.Codec.set_u8 b 8 13 (* flip ttl *);
  match Header.decode b ~off:0 ~len:Header.size with
  | Error Header.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Header.pp_error e
  | Ok _ -> Alcotest.fail "corruption accepted"

let test_header_rejects () =
  let b = Bytes.create Header.size in
  Header.encode_into b ~off:0 { (sample_header ()) with Header.total_len = 20 };
  (match Header.decode b ~off:0 ~len:10 with
  | Error Header.Too_short -> ()
  | _ -> Alcotest.fail "short accepted");
  let bad_ver = Bytes.copy b in
  Psd_util.Codec.set_u8 bad_ver 0 0x55;
  (match Header.decode bad_ver ~off:0 ~len:Header.size with
  | Error (Header.Bad_version 5) -> ()
  | _ -> Alcotest.fail "version accepted")

(* --- Route ------------------------------------------------------------ *)

let test_route_longest_prefix () =
  let r = Route.create () in
  Route.add r
    {
      Route.net = addr "0.0.0.0";
      mask = addr "0.0.0.0";
      hop = Route.Gateway (addr "10.0.0.254");
      iface = 0;
    };
  Route.add r
    {
      Route.net = addr "10.0.0.0";
      mask = addr "255.255.255.0";
      hop = Route.Direct;
      iface = 0;
    };
  (match Route.lookup r (addr "10.0.0.9") with
  | Some (hop, 0) ->
    Alcotest.(check string) "direct" "10.0.0.9" (Addr.to_string hop)
  | _ -> Alcotest.fail "no direct route");
  match Route.lookup r (addr "192.168.1.1") with
  | Some (hop, 0) ->
    Alcotest.(check string) "via gw" "10.0.0.254" (Addr.to_string hop)
  | _ -> Alcotest.fail "no default route"

let test_route_no_match () =
  let r = Route.create () in
  Route.add r
    {
      Route.net = addr "10.0.0.0";
      mask = addr "255.0.0.0";
      hop = Route.Direct;
      iface = 0;
    };
  Alcotest.(check bool) "none" true (Route.lookup r (addr "11.0.0.1") = None)

let test_route_replace_and_generation () =
  let r = Route.create () in
  let g0 = Route.generation r in
  let e =
    {
      Route.net = addr "10.0.0.0";
      mask = addr "255.0.0.0";
      hop = Route.Direct;
      iface = 0;
    }
  in
  Route.add r e;
  Route.add r { e with Route.hop = Route.Gateway (addr "10.9.9.9") };
  Alcotest.(check int) "single entry" 1 (List.length (Route.entries r));
  Alcotest.(check bool) "generation moved" true (Route.generation r > g0)

(* --- Stack pair harness ------------------------------------------------ *)

type host = { ip : Ip.t; ctx : Psd_cost.Ctx.t }

let make_pair eng =
  let cpu_a = Psd_sim.Cpu.create eng and cpu_b = Psd_sim.Cpu.create eng in
  let plat = Psd_cost.Platform.decstation in
  let mk cpu a =
    let ctx =
      Psd_cost.Ctx.create ~eng ~cpu ~plat ~role:Psd_cost.Ctx.Library_stack
    in
    let routes = Route.create () in
    Route.add routes
      {
        Route.net = addr "10.0.0.0";
        mask = addr "255.255.255.0";
        hop = Route.Direct;
        iface = 0;
      };
    { ip = Ip.create ~ctx ~addr:a ~routes (); ctx }
  in
  let a = mk cpu_a (addr "10.0.0.1") in
  let b = mk cpu_b (addr "10.0.0.2") in
  (* Wire the two stacks together with a small propagation delay. *)
  let connect src dst =
    Ip.set_transmit src.ip (fun ~next_hop:_ ~iface:_ m ->
        let packet = Mbuf.to_bytes m in
        Psd_sim.Engine.schedule eng 1000 (fun () ->
            Psd_sim.Engine.spawn eng (fun () ->
                Ip.input dst.ip packet ~off:0 ~len:(Bytes.length packet))))
  in
  connect a b;
  connect b a;
  (a, b)

let run_to_completion eng = Psd_sim.Engine.run eng

let test_ip_end_to_end () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  let got = ref [] in
  Ip.register b.ip ~proto:200 (fun ~hdr m ->
      got := (hdr.Header.src, Mbuf.to_string m) :: !got);
  Psd_sim.Engine.spawn eng (fun () ->
      match
        Ip.output a.ip ~proto:200 ~dst:(addr "10.0.0.2")
          (Mbuf.of_string "ping")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "output failed");
  run_to_completion eng;
  match !got with
  | [ (src, payload) ] ->
    Alcotest.(check string) "src" "10.0.0.1" (Addr.to_string src);
    Alcotest.(check string) "payload" "ping" payload
  | _ -> Alcotest.fail "expected one delivery"

let test_ip_fragmentation_roundtrip () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  let payload = String.init 4000 (fun i -> Char.chr (i mod 251)) in
  let got = ref None in
  Ip.register b.ip ~proto:201 (fun ~hdr:_ m -> got := Some (Mbuf.to_string m));
  Psd_sim.Engine.spawn eng (fun () ->
      match
        Ip.output a.ip ~proto:201 ~dst:(addr "10.0.0.2")
          (Mbuf.of_string payload)
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "output failed");
  run_to_completion eng;
  (match !got with
  | Some s -> Alcotest.(check string) "reassembled" payload s
  | None -> Alcotest.fail "not delivered");
  Alcotest.(check int) "fragments produced" 3 (Ip.stats a.ip).ip_fragmented;
  Alcotest.(check int) "reassembled count" 1 (Ip.stats b.ip).ip_reassembled

let test_ip_fragment_loss_times_out () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  let got = ref None in
  Ip.register b.ip ~proto:201 (fun ~hdr:_ m -> got := Some (Mbuf.to_string m));
  (* re-wire a->b to lose the middle fragment of the three *)
  let nth = ref 0 in
  Ip.set_transmit a.ip (fun ~next_hop:_ ~iface:_ m ->
      let packet = Mbuf.to_bytes m in
      incr nth;
      if !nth <> 2 then
        Psd_sim.Engine.schedule eng 1000 (fun () ->
            Psd_sim.Engine.spawn eng (fun () ->
                Ip.input b.ip packet ~off:0 ~len:(Bytes.length packet))));
  Psd_sim.Engine.spawn eng (fun () ->
      match
        Ip.output a.ip ~proto:201 ~dst:(addr "10.0.0.2")
          (Mbuf.of_string (String.make 4000 'f'))
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "output failed");
  run_to_completion eng;
  Alcotest.(check (option string)) "never delivered" None !got;
  Alcotest.(check int) "reassembly gave up" 1 (Ip.reass_timed_out b.ip);
  Alcotest.(check int) "no datagram counted" 0
    (Ip.stats b.ip).ip_reassembled

let test_ip_dont_frag () =
  let eng = Psd_sim.Engine.create () in
  let a, _b = make_pair eng in
  let result = ref (Ok ()) in
  Psd_sim.Engine.spawn eng (fun () ->
      result :=
        Ip.output a.ip ~dont_frag:true ~proto:200 ~dst:(addr "10.0.0.2")
          (Mbuf.of_string (String.make 3000 'x')));
  run_to_completion eng;
  Alcotest.(check bool) "would fragment" true (!result = Error `Would_fragment)

let test_ip_no_route () =
  let eng = Psd_sim.Engine.create () in
  let a, _b = make_pair eng in
  let result = ref (Ok ()) in
  Psd_sim.Engine.spawn eng (fun () ->
      result :=
        Ip.output a.ip ~proto:200 ~dst:(addr "192.168.7.7")
          (Mbuf.of_string "x"));
  run_to_completion eng;
  Alcotest.(check bool) "no route" true (!result = Error `No_route);
  Alcotest.(check int) "stat" 1 (Ip.stats a.ip).ip_no_route

let test_ip_wrong_addr_dropped () =
  let eng = Psd_sim.Engine.create () in
  let _a, b = make_pair eng in
  (* Hand-build a packet addressed to someone else. *)
  let h = { (sample_header ()) with Header.dst = addr "10.0.0.99" } in
  let b' = Bytes.create (Header.size + 100) in
  Header.encode_into b' ~off:0 h;
  Psd_sim.Engine.spawn eng (fun () ->
      Ip.input b.ip b' ~off:0 ~len:(Bytes.length b'));
  run_to_completion eng;
  Alcotest.(check int) "dropped" 1 (Ip.stats b.ip).ip_dropped_addr

let test_ip_unknown_proto_dropped () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  Psd_sim.Engine.spawn eng (fun () ->
      ignore
        (Ip.output a.ip ~proto:99 ~dst:(addr "10.0.0.2") (Mbuf.of_string "x")));
  run_to_completion eng;
  Alcotest.(check int) "dropped proto" 1 (Ip.stats b.ip).ip_dropped_proto

let test_ip_too_big () =
  let eng = Psd_sim.Engine.create () in
  let a, _ = make_pair eng in
  let result = ref (Ok ()) in
  Psd_sim.Engine.spawn eng (fun () ->
      result :=
        Ip.output a.ip ~proto:200 ~dst:(addr "10.0.0.2")
          (Mbuf.of_string (String.make 70_000 'x')));
  run_to_completion eng;
  Alcotest.(check bool) "too big" true (!result = Error `Too_big)

(* --- Reassembly corner cases ------------------------------------------- *)

let feed_fragment reass ~ident ~off ~mf payload =
  let h =
    {
      (sample_header ()) with
      Header.ident;
      frag_off = off;
      more_frags = mf;
      total_len = Header.size + String.length payload;
    }
  in
  Reass.input reass h (Mbuf.of_string payload)

let test_reass_out_of_order () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  Alcotest.(check bool) "tail first" true
    (feed_fragment r ~ident:1 ~off:8 ~mf:false "WORLD" = None);
  match feed_fragment r ~ident:1 ~off:0 ~mf:true "HELLO..." with
  | Some (h, m) ->
    Alcotest.(check string) "joined" "HELLO...WORLD" (Mbuf.to_string m);
    Alcotest.(check int) "len" (Header.size + 13) h.Header.total_len;
    Alcotest.(check bool) "frag cleared" false h.Header.more_frags
  | None -> Alcotest.fail "incomplete"

let test_reass_hole_not_complete () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  ignore (feed_fragment r ~ident:2 ~off:0 ~mf:true "12345678");
  Alcotest.(check bool) "hole" true
    (feed_fragment r ~ident:2 ~off:16 ~mf:false "tail" = None);
  Alcotest.(check int) "pending" 1 (Reass.pending r)

let test_reass_interleaved_datagrams () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  ignore (feed_fragment r ~ident:10 ~off:0 ~mf:true "AAAAAAAA");
  ignore (feed_fragment r ~ident:11 ~off:0 ~mf:true "BBBBBBBB");
  (match feed_fragment r ~ident:11 ~off:8 ~mf:false "bb" with
  | Some (_, m) -> Alcotest.(check string) "b" "BBBBBBBBbb" (Mbuf.to_string m)
  | None -> Alcotest.fail "b incomplete");
  match feed_fragment r ~ident:10 ~off:8 ~mf:false "aa" with
  | Some (_, m) -> Alcotest.(check string) "a" "AAAAAAAAaa" (Mbuf.to_string m)
  | None -> Alcotest.fail "a incomplete"

let test_reass_timeout () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng ~timeout_ns:(Psd_sim.Time.ms 100) () in
  ignore (feed_fragment r ~ident:3 ~off:0 ~mf:true "xxxxxxxx");
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "timed out" 1 (Reass.timed_out r);
  Alcotest.(check int) "pending cleared" 0 (Reass.pending r);
  (* Late fragment restarts a fresh datagram rather than completing. *)
  Alcotest.(check bool) "late tail alone" true
    (feed_fragment r ~ident:3 ~off:8 ~mf:false "tail" = None)

(* A datagram completed before its deadline leaves its timer in the
   queue. A second datagram under the same (src, dst, proto, ident) key,
   started before that deadline, has its own deadline; the first
   datagram's timer must not time it out. *)
let test_reass_key_reuse () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng ~timeout_ns:(Psd_sim.Time.ms 100) () in
  ignore (feed_fragment r ~ident:7 ~off:0 ~mf:true "AAAAAAAA");
  Psd_sim.Engine.run_until eng (Psd_sim.Time.ms 10);
  if feed_fragment r ~ident:7 ~off:8 ~mf:false "aa" = None then
    Alcotest.fail "first datagram incomplete";
  Psd_sim.Engine.run_until eng (Psd_sim.Time.ms 50);
  ignore (feed_fragment r ~ident:7 ~off:0 ~mf:true "BBBBBBBB");
  (* past the first datagram's deadline, before the second's *)
  Psd_sim.Engine.run_until eng (Psd_sim.Time.ms 120);
  Alcotest.(check int) "nothing timed out" 0 (Reass.timed_out r);
  Alcotest.(check int) "second still pending" 1 (Reass.pending r);
  (match feed_fragment r ~ident:7 ~off:8 ~mf:false "bb" with
  | Some (_, m) ->
    Alcotest.(check string) "second joined" "BBBBBBBBbb" (Mbuf.to_string m)
  | None -> Alcotest.fail "second datagram lost");
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "no timeout after completion" 0 (Reass.timed_out r)

let test_reass_inconsistent_final () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  (* the true final fragment fixes the datagram's total length at 13 *)
  ignore (feed_fragment r ~ident:5 ~off:8 ~mf:false "WORLD");
  (* a damaged copy claiming a different end must not re-truncate it *)
  Alcotest.(check bool) "conflicting final rejected" true
    (feed_fragment r ~ident:5 ~off:8 ~mf:false "ab" = None);
  Alcotest.(check int) "counted" 1 (Reass.dropped_inconsistent r);
  match feed_fragment r ~ident:5 ~off:0 ~mf:true "HELLO..." with
  | Some (_, m) ->
    Alcotest.(check string) "completes at the original total"
      "HELLO...WORLD" (Mbuf.to_string m)
  | None -> Alcotest.fail "incomplete"

let test_reass_fragment_beyond_total () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  ignore (feed_fragment r ~ident:6 ~off:8 ~mf:false "IJ");
  (* data past the established end of the datagram is damage *)
  Alcotest.(check bool) "overshoot rejected" true
    (feed_fragment r ~ident:6 ~off:16 ~mf:true "XX" = None);
  Alcotest.(check int) "counted" 1 (Reass.dropped_inconsistent r);
  match feed_fragment r ~ident:6 ~off:0 ~mf:true "ABCDEFGH" with
  | Some (_, m) ->
    Alcotest.(check string) "intact" "ABCDEFGHIJ" (Mbuf.to_string m)
  | None -> Alcotest.fail "incomplete"

let test_reass_final_below_extent () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  ignore (feed_fragment r ~ident:7 ~off:8 ~mf:true "BBBBBBBB");
  (* a final that ends before data we already hold cannot be genuine *)
  Alcotest.(check bool) "short final rejected" true
    (feed_fragment r ~ident:7 ~off:8 ~mf:false "b" = None);
  Alcotest.(check int) "counted" 1 (Reass.dropped_inconsistent r);
  ignore (feed_fragment r ~ident:7 ~off:0 ~mf:true "AAAAAAAA");
  match feed_fragment r ~ident:7 ~off:16 ~mf:false "CC" with
  | Some (_, m) ->
    Alcotest.(check string) "intact" "AAAAAAAABBBBBBBBCC" (Mbuf.to_string m)
  | None -> Alcotest.fail "incomplete"

let test_reass_duplicate_fragment () =
  let eng = Psd_sim.Engine.create () in
  let r = Reass.create eng () in
  ignore (feed_fragment r ~ident:4 ~off:0 ~mf:true "ABCDEFGH");
  ignore (feed_fragment r ~ident:4 ~off:0 ~mf:true "ABCDEFGH");
  match feed_fragment r ~ident:4 ~off:8 ~mf:false "IJ" with
  | Some (_, m) -> Alcotest.(check string) "dedup" "ABCDEFGHIJ" (Mbuf.to_string m)
  | None -> Alcotest.fail "incomplete"

let prop_header_roundtrip =
  QCheck.Test.make ~name:"ip header: encode/decode roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xffff) (int_bound 255) (int_bound 0xffff)
        (pair (int_bound 0xff) (int_bound 1000)))
    (fun (ident, ttl, _, (proto, payload)) ->
      let h =
        {
          Header.src = Addr.of_int 0x0a000001;
          dst = Addr.of_int 0x0a000002;
          proto;
          ttl;
          ident;
          dont_frag = false;
          more_frags = false;
          frag_off = 0;
          total_len = Header.size + payload;
        }
      in
      let b = Bytes.create Header.size in
      Header.encode_into b ~off:0 h;
      match Header.decode b ~off:0 ~len:(Header.size + payload) with
      | Ok h' -> h = h'
      | Error _ -> false)

(* --- ICMP codec -------------------------------------------------------- *)

let test_icmp_echo_roundtrip () =
  let msg = Icmp.Echo_request { id = 7; seq = 42; payload = "ping-data" } in
  let b = Icmp.encode msg in
  (match Icmp.decode b with
  | Ok (Icmp.Echo_request { id = 7; seq = 42; payload = "ping-data" }) -> ()
  | _ -> Alcotest.fail "echo request roundtrip");
  let reply = Icmp.Echo_reply { id = 7; seq = 42; payload = "ping-data" } in
  match Icmp.decode (Icmp.encode reply) with
  | Ok (Icmp.Echo_reply { id = 7; seq = 42; _ }) -> ()
  | _ -> Alcotest.fail "echo reply roundtrip"

let test_icmp_unreachable_roundtrip () =
  let original = Bytes.of_string (String.make 28 '\x05') in
  let msg =
    Icmp.Dest_unreachable { code = Icmp.code_port_unreachable; original }
  in
  match Icmp.decode (Icmp.encode msg) with
  | Ok (Icmp.Dest_unreachable { code; original = o }) ->
    Alcotest.(check int) "code" 3 code;
    Alcotest.(check bytes) "original" original o
  | _ -> Alcotest.fail "unreachable roundtrip"

let test_icmp_rejects_corruption () =
  let b = Icmp.encode (Icmp.Echo_request { id = 1; seq = 1; payload = "x" }) in
  Bytes.set b 4 '\xff';
  match Icmp.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt icmp accepted"

let test_icmp_echo_between_stacks () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  let icmp_a = Icmp.create ~ctx:a.ctx ~ip:a.ip () in
  let _icmp_b = Icmp.create ~ctx:b.ctx ~ip:b.ip () in
  let replied = ref None in
  Icmp.on_reply icmp_a (fun ~src ~id ~seq ~payload:_ ->
      replied := Some (src, id, seq));
  Psd_sim.Engine.spawn eng (fun () ->
      Icmp.ping icmp_a ~dst:(addr "10.0.0.2") ~id:3 ~seq:9 ());
  run_to_completion eng;
  (match !replied with
  | Some (src, 3, 9) ->
    Alcotest.(check string) "from" "10.0.0.2" (Addr.to_string src)
  | _ -> Alcotest.fail "no echo reply");
  Alcotest.(check int) "b answered one request" 1
    (Icmp.stats _icmp_b).Icmp.echo_requests_in

(* An IPv4 packet from [src] to [dst] carrying [body] as protocol
   [proto], with a valid header checksum. *)
let ip_packet ~src ~dst ~proto body =
  let b = Bytes.create (Header.size + Bytes.length body) in
  Header.encode_into b ~off:0
    {
      Header.src;
      dst;
      proto;
      ttl = 64;
      ident = 1;
      dont_frag = false;
      more_frags = false;
      frag_off = 0;
      total_len = Bytes.length b;
    };
  Bytes.blit body 0 b Header.size (Bytes.length body);
  b

(* Only port-unreachable (code 3) is "connection refused": a forged
   host-unreachable (code 1) naming a connected UDP peer is counted and
   leaves the socket without a soft error. *)
let test_icmp_unreachable_code_gates_soft_error () =
  let eng = Psd_sim.Engine.create () in
  let a, b = make_pair eng in
  let icmp = Icmp.create ~ctx:a.ctx ~ip:a.ip () in
  let udp = Psd_udp.Udp.create ~ctx:a.ctx ~ip:a.ip () in
  Icmp.on_unreachable icmp (fun ~orig_dst ~orig_proto ~orig_dst_port ->
      if orig_proto = Header.proto_udp then
        Psd_udp.Udp.notify_unreachable udp ~dst:orig_dst ~port:orig_dst_port);
  let pcb =
    match Psd_udp.Udp.bind udp ~port:5000 ~receive:(fun _ -> ()) with
    | Ok pcb -> pcb
    | Error `Port_in_use -> Alcotest.fail "bind"
  in
  Psd_udp.Udp.connect pcb (addr "10.0.0.2") 9;
  (* the datagram a sent: IP header plus the UDP ports 5000 -> 9 *)
  let udp_head = Bytes.make 8 '\000' in
  Psd_util.Codec.set_u16 udp_head 0 5000;
  Psd_util.Codec.set_u16 udp_head 2 9;
  let original =
    ip_packet ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
      ~proto:Header.proto_udp udp_head
  in
  let unreachable code =
    Psd_sim.Engine.spawn eng (fun () ->
        let msg = Icmp.encode (Icmp.Dest_unreachable { code; original }) in
        ignore
          (Ip.output b.ip ~proto:Header.proto_icmp ~dst:(addr "10.0.0.1")
             (Mbuf.of_bytes msg ~off:0 ~len:(Bytes.length msg))));
    run_to_completion eng
  in
  unreachable 1;
  Alcotest.(check int) "code 1 counted" 1 (Icmp.stats icmp).Icmp.unreachable_in;
  Alcotest.(check (option string)) "code 1 leaves no soft error" None
    (Psd_udp.Udp.take_error pcb);
  unreachable Icmp.code_port_unreachable;
  Alcotest.(check (option string)) "code 3 refuses" (Some "connection refused")
    (Psd_udp.Udp.take_error pcb)

(* ICMP bodies, arbitrary or valid then damaged (a byte overwritten or
   the tail cut), behind a valid IP header into a stack's input. *)
let gen_icmp_body =
  let open QCheck.Gen in
  let payload = string_size (0 -- 40) in
  let valid =
    oneof
      [
        map3
          (fun id seq payload -> Icmp.Echo_request { id; seq; payload })
          (int_bound 0xffff) (int_bound 0xffff) payload;
        map3
          (fun id seq payload -> Icmp.Echo_reply { id; seq; payload })
          (int_bound 0xffff) (int_bound 0xffff) payload;
        map2
          (fun code o -> Icmp.Dest_unreachable { code; original = Bytes.of_string o })
          (int_bound 255) payload;
      ]
    >|= Icmp.encode
  in
  let damage b =
    let n = Bytes.length b in
    oneof
      [
        return b;
        map2
          (fun i c ->
            let b = Bytes.copy b in
            Bytes.set b (i mod n) (Char.chr c);
            b)
          nat (int_bound 255);
        map (fun k -> Bytes.sub b 0 (k mod (n + 1))) nat;
      ]
  in
  frequency
    [ (1, map Bytes.of_string (string_size (0 -- 48))); (3, valid >>= damage) ]

let prop_icmp_input_total =
  QCheck.Test.make ~name:"icmp: hostile input never raises, rejects counted once"
    ~count:200
    QCheck.(make (Gen.list_size Gen.(1 -- 8) gen_icmp_body))
    (fun bodies ->
      let eng = Psd_sim.Engine.create () in
      let a, _b = make_pair eng in
      let icmp = Icmp.create ~ctx:a.ctx ~ip:a.ip () in
      Icmp.on_unreachable icmp (fun ~orig_dst:_ ~orig_proto:_ ~orig_dst_port:_ ->
          ());
      List.for_all
        (fun body ->
          let before = (Icmp.stats icmp).Icmp.rejected in
          let packet =
            ip_packet ~src:(addr "10.0.0.2") ~dst:(addr "10.0.0.1")
              ~proto:Header.proto_icmp body
          in
          Psd_sim.Engine.spawn eng (fun () ->
              Ip.input a.ip packet ~off:0 ~len:(Bytes.length packet));
          run_to_completion eng;
          let expected = match Icmp.decode body with Error _ -> 1 | Ok _ -> 0 in
          (Icmp.stats icmp).Icmp.rejected - before = expected)
        bodies)

let () =
  Alcotest.run "psd_ip"
    [
      ( "addr",
        [
          Alcotest.test_case "parse" `Quick test_addr_parse;
          Alcotest.test_case "parse errors" `Quick test_addr_parse_errors;
          Alcotest.test_case "subnet" `Quick test_addr_subnet;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "frag fields" `Quick test_header_frag_fields;
          Alcotest.test_case "checksum" `Quick
            test_header_checksum_detects_corruption;
          Alcotest.test_case "rejects" `Quick test_header_rejects;
          QCheck_alcotest.to_alcotest prop_header_roundtrip;
        ] );
      ( "route",
        [
          Alcotest.test_case "longest prefix" `Quick test_route_longest_prefix;
          Alcotest.test_case "no match" `Quick test_route_no_match;
          Alcotest.test_case "replace+generation" `Quick
            test_route_replace_and_generation;
        ] );
      ( "stack",
        [
          Alcotest.test_case "end to end" `Quick test_ip_end_to_end;
          Alcotest.test_case "fragmentation" `Quick
            test_ip_fragmentation_roundtrip;
          Alcotest.test_case "dont frag" `Quick test_ip_dont_frag;
          Alcotest.test_case "fragment loss times out" `Quick
            test_ip_fragment_loss_times_out;
          Alcotest.test_case "no route" `Quick test_ip_no_route;
          Alcotest.test_case "wrong addr" `Quick test_ip_wrong_addr_dropped;
          Alcotest.test_case "unknown proto" `Quick
            test_ip_unknown_proto_dropped;
          Alcotest.test_case "too big" `Quick test_ip_too_big;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "echo roundtrip" `Quick test_icmp_echo_roundtrip;
          Alcotest.test_case "unreachable roundtrip" `Quick
            test_icmp_unreachable_roundtrip;
          Alcotest.test_case "corruption" `Quick test_icmp_rejects_corruption;
          Alcotest.test_case "echo between stacks" `Quick
            test_icmp_echo_between_stacks;
          Alcotest.test_case "unreachable code gates soft error" `Quick
            test_icmp_unreachable_code_gates_soft_error;
          QCheck_alcotest.to_alcotest prop_icmp_input_total;
        ] );
      ( "reass",
        [
          Alcotest.test_case "out of order" `Quick test_reass_out_of_order;
          Alcotest.test_case "hole" `Quick test_reass_hole_not_complete;
          Alcotest.test_case "interleaved" `Quick
            test_reass_interleaved_datagrams;
          Alcotest.test_case "timeout" `Quick test_reass_timeout;
          Alcotest.test_case "key reuse before deadline" `Quick
            test_reass_key_reuse;
          Alcotest.test_case "duplicate" `Quick test_reass_duplicate_fragment;
          Alcotest.test_case "inconsistent final" `Quick
            test_reass_inconsistent_final;
          Alcotest.test_case "beyond total" `Quick
            test_reass_fragment_beyond_total;
          Alcotest.test_case "final below extent" `Quick
            test_reass_final_below_extent;
        ] );
    ]
