open Psd_link
open Psd_sim

let mk_frame ~dst ~src ~len =
  let b = Bytes.make (max len Frame.header_size) '\x00' in
  Frame.set_header b ~off:0 ~dst ~src ~ethertype:Frame.ethertype_ip;
  b

let test_macaddr_roundtrip () =
  let m = Macaddr.of_host_id 5 in
  let b = Bytes.create 10 in
  Macaddr.write m b 2;
  Alcotest.(check bool) "roundtrip" true (Macaddr.equal m (Macaddr.read b 2))

(* the in-place compare the ARP refresh uses, against the string one *)
let prop_macaddr_equal_bytes =
  QCheck.Test.make ~name:"macaddr: equal_bytes is equal of read" ~count:300
    QCheck.(pair (string_of_size (Gen.return 6)) (string_of_size Gen.(8 -- 12)))
    (fun (m, s) ->
      let b = Bytes.of_string s in
      let m = Macaddr.of_string m in
      (* a hit half the time: the candidate written into the bytes *)
      if Char.code s.[0] land 1 = 0 then Macaddr.write m b 1;
      List.for_all
        (fun off ->
          Macaddr.equal_bytes m b off = Macaddr.equal m (Macaddr.read b off))
        (List.init (Bytes.length b - 5) Fun.id))

let test_macaddr_broadcast () =
  let b = Bytes.create 6 in
  Macaddr.write Macaddr.broadcast b 0;
  Alcotest.(check string) "bcast" (String.make 6 '\xff') (Bytes.to_string b);
  Alcotest.(check bool) "unicast" false
    (Macaddr.equal Macaddr.broadcast (Macaddr.of_host_id 1))

let test_macaddr_pp () =
  let s = Format.asprintf "%a" Macaddr.pp (Macaddr.of_host_id 1) in
  Alcotest.(check string) "pp" "02:00:00:00:00:01" s

let test_frame_header () =
  let dst = Macaddr.of_host_id 1 and src = Macaddr.of_host_id 2 in
  let b = mk_frame ~dst ~src ~len:64 in
  Alcotest.(check bool) "dst" true (Macaddr.equal dst (Frame.dst b));
  Alcotest.(check bool) "src" true (Macaddr.equal src (Frame.src b));
  Alcotest.(check int) "ethertype" 0x0800 (Frame.ethertype b)

let two_nics () =
  let eng = Engine.create () in
  let seg = Segment.create eng () in
  let a = Segment.attach seg ~mac:(Macaddr.of_host_id 1) in
  let b = Segment.attach seg ~mac:(Macaddr.of_host_id 2) in
  (eng, seg, a, b)

let test_unicast_delivery () =
  let eng, _seg, a, b = two_nics () in
  let got = ref [] in
  Segment.set_rx b (fun frame -> got := frame :: !got);
  let self = ref 0 in
  Segment.set_rx a (fun _ -> incr self);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:100);
  Engine.run eng;
  Alcotest.(check int) "b got one" 1 (List.length !got);
  Alcotest.(check int) "a does not hear itself" 0 !self

let test_wrong_dst_filtered () =
  let eng, seg, a, b = two_nics () in
  let c = Segment.attach seg ~mac:(Macaddr.of_host_id 3) in
  let got_b = ref 0 and got_c = ref 0 in
  Segment.set_rx b (fun _ -> incr got_b);
  Segment.set_rx c (fun _ -> incr got_c);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac c) ~src:(Segment.mac a) ~len:80);
  Engine.run eng;
  Alcotest.(check int) "b filtered" 0 !got_b;
  Alcotest.(check int) "c got it" 1 !got_c

let test_broadcast_delivery () =
  let eng, seg, a, b = two_nics () in
  let c = Segment.attach seg ~mac:(Macaddr.of_host_id 3) in
  let got_b = ref 0 and got_c = ref 0 in
  Segment.set_rx b (fun _ -> incr got_b);
  Segment.set_rx c (fun _ -> incr got_c);
  Segment.transmit a
    (mk_frame ~dst:Macaddr.broadcast ~src:(Segment.mac a) ~len:80);
  Engine.run eng;
  Alcotest.(check int) "b" 1 !got_b;
  Alcotest.(check int) "c" 1 !got_c

let test_promiscuous () =
  let eng, _seg, a, b = two_nics () in
  Segment.set_promiscuous b true;
  let got = ref 0 in
  Segment.set_rx b (fun _ -> incr got);
  Segment.transmit a
    (mk_frame ~dst:(Macaddr.of_host_id 9) ~src:(Segment.mac a) ~len:80);
  Engine.run eng;
  Alcotest.(check int) "promisc hears all" 1 !got

let test_serialization_at_wire_rate () =
  (* A 1514-byte frame at 10 Mb/s: (1514+8)*8 bits = 1217.6 us + 9.6 ifg. *)
  let eng, _seg, a, b = two_nics () in
  let at = ref 0 in
  Segment.set_rx b (fun _ -> at := Engine.now eng);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:1514);
  Engine.run eng;
  Alcotest.(check int) "arrival at last bit" 1_217_600 !at

let test_fifo_back_to_back () =
  (* Two frames queued at once: second arrives one frame-time later. *)
  let eng, _seg, a, b = two_nics () in
  let times = ref [] in
  Segment.set_rx b (fun _ -> times := Engine.now eng :: !times);
  let f = mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:1514 in
  Segment.transmit a f;
  Segment.transmit a (Bytes.copy f);
  Engine.run eng;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check int) "spacing is frame time" 1_227_200 (t2 - t1)
  | _ -> Alcotest.fail "expected two arrivals"

let test_min_frame_padding () =
  let eng, _seg, a, b = two_nics () in
  let size = ref 0 in
  Segment.set_rx b (fun frame -> size := Bytes.length frame);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:20);
  Engine.run eng;
  Alcotest.(check int) "padded" Frame.min_frame !size

let test_giant_frame_rejected () =
  let _eng, _seg, a, b = two_nics () in
  Alcotest.check_raises "giant"
    (Invalid_argument "Segment.transmit: giant frame") (fun () ->
      Segment.transmit a
        (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:1600))

let test_stats () =
  let eng, seg, a, b = two_nics () in
  Segment.set_rx b (fun _ -> ());
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:100);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:200);
  Engine.run eng;
  Alcotest.(check int) "frames" 2 (Segment.frames_sent seg)

let test_throughput_bound () =
  (* Saturating the wire with max frames cannot exceed ~10 Mb/s. *)
  let eng, seg, a, b = two_nics () in
  let received = ref 0 in
  Segment.set_rx b (fun frame -> received := !received + Bytes.length frame);
  let f = mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:1514 in
  for _ = 1 to 100 do
    Segment.transmit a (Bytes.copy f)
  done;
  Engine.run eng;
  let elapsed_s = float_of_int (Engine.now eng) /. 1e9 in
  let rate_bps = float_of_int (!received * 8) /. elapsed_s in
  Alcotest.(check bool) "under 10Mb/s" true (rate_bps < 10_000_000.);
  Alcotest.(check bool) "over 9.5Mb/s" true (rate_bps > 9_500_000.);
  ignore seg

(* --- fault injection --------------------------------------------------- *)

let ip_frame ?(claimed_len = None) ~len () =
  (* an IP-ethertype frame; [claimed_len] forges the IP total-length
     field (offset 16) — default claims the whole payload *)
  let b = mk_frame ~dst:(Macaddr.of_host_id 2) ~src:(Macaddr.of_host_id 1) ~len in
  let total = match claimed_len with Some l -> l | None -> len - 14 in
  Bytes.set_uint8 b 16 (total lsr 8);
  Bytes.set_uint8 b 17 (total land 0xff);
  b

let test_fault_null_passthrough () =
  let f = Fault.create ~rng:(Psd_util.Rng.create ~seed:1) Fault.none in
  let frame = ip_frame ~len:100 () in
  let before = Bytes.copy frame in
  (match Fault.apply f frame with
  | [ (0, frm) ] ->
    Alcotest.(check bool) "same frame" true (frm == frame);
    Alcotest.(check bytes) "untouched" before frm
  | _ -> Alcotest.fail "null policy must deliver exactly once, delay 0");
  Alcotest.(check int) "counted" 1 (Fault.stats f).Fault.frames;
  Alcotest.(check int) "no faults" 0 (Fault.injected (Fault.stats f))

let test_fault_drop_all () =
  let f = Fault.create ~rng:(Psd_util.Rng.create ~seed:1) (Fault.drop_only 1.0) in
  for _ = 1 to 10 do
    Alcotest.(check (list (pair int bytes))) "dropped" []
      (Fault.apply f (ip_frame ~len:80 ()))
  done;
  Alcotest.(check int) "all counted" 10 (Fault.stats f).Fault.dropped

let test_fault_duplicate () =
  let f =
    Fault.create ~rng:(Psd_util.Rng.create ~seed:1)
      { Fault.none with Fault.duplicate = 1.0 }
  in
  match Fault.apply f (ip_frame ~len:80 ()) with
  | [ (0, a); (0, b) ] ->
    Alcotest.(check bytes) "copies equal" a b;
    Bytes.set_uint8 a 20 0xff;
    Alcotest.(check bool) "copies independent" false (Bytes.equal a b)
  | l -> Alcotest.failf "expected two immediate copies, got %d" (List.length l)

let test_fault_corrupt_scoped () =
  let f =
    Fault.create ~rng:(Psd_util.Rng.create ~seed:3)
      { Fault.none with Fault.corrupt = 1.0 }
  in
  (* IP frame claiming 20 bytes of a 60-byte payload: the corrupted byte
     must land inside the claimed datagram, never in the pad *)
  for _ = 1 to 50 do
    let frame = ip_frame ~claimed_len:(Some 20) ~len:74 () in
    let before = Bytes.copy frame in
    (match Fault.apply f frame with
    | [ (0, frm) ] ->
      let diffs = ref [] in
      Bytes.iteri
        (fun i c -> if c <> Bytes.get before i then diffs := i :: !diffs)
        frm;
      (match !diffs with
      | [ i ] ->
        Alcotest.(check bool) "inside claimed datagram" true
          (i >= 14 && i < 14 + 20)
      | _ -> Alcotest.fail "exactly one byte must differ")
    | _ -> Alcotest.fail "corrupt must still deliver once")
  done;
  (* a non-IP frame (ARP) is never corrupted *)
  let arp = mk_frame ~dst:(Macaddr.of_host_id 2) ~src:(Macaddr.of_host_id 1) ~len:60 in
  Bytes.set_uint8 arp 12 0x08;
  Bytes.set_uint8 arp 13 0x06;
  let before = Bytes.copy arp in
  (match Fault.apply f arp with
  | [ (0, frm) ] -> Alcotest.(check bytes) "arp untouched" before frm
  | _ -> Alcotest.fail "non-IP frames pass through");
  Alcotest.(check int) "only IP corruptions counted" 50
    (Fault.stats f).Fault.corrupted

let test_fault_same_seed_same_schedule () =
  let run () =
    let f =
      Fault.create ~rng:(Psd_util.Rng.create ~seed:99) (Fault.chaos 0.3)
    in
    let log = ref [] in
    for i = 1 to 200 do
      let frame = ip_frame ~len:(60 + (i mod 40)) () in
      let fate =
        Fault.apply f frame
        |> List.map (fun (d, frm) -> (d, Bytes.to_string frm))
      in
      log := fate :: !log
    done;
    (!log, Fault.injected (Fault.stats f))
  in
  let log1, n1 = run () and log2, n2 = run () in
  Alcotest.(check bool) "identical schedules" true (log1 = log2);
  Alcotest.(check int) "identical counts" n1 n2;
  Alcotest.(check bool) "faults actually fired" true (n1 > 0)

let test_fault_on_segment () =
  (* wire a drop-everything fault into the segment: nothing arrives *)
  let eng, seg, a, b = two_nics () in
  Segment.set_fault seg
    (Some
       (Fault.create ~rng:(Psd_util.Rng.create ~seed:1) (Fault.drop_only 1.0)));
  let got = ref 0 in
  Segment.set_rx b (fun _ -> incr got);
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:100);
  Engine.run eng;
  Alcotest.(check int) "all dropped" 0 !got;
  (* a per-NIC null process overrides the lossy segment-wide one *)
  Segment.set_nic_fault b
    (Some (Fault.create ~rng:(Psd_util.Rng.create ~seed:1) Fault.none));
  Segment.transmit a
    (mk_frame ~dst:(Segment.mac b) ~src:(Segment.mac a) ~len:100);
  Engine.run eng;
  Alcotest.(check int) "nic override wins" 1 !got

(* The unicast index must pick exactly the NICs a walk over every NIC
   would: in attach order, all but the sender, those that are
   promiscuous, or the frame is broadcast, or their MAC is its
   destination. MACs are drawn from a small pool so that several NICs
   share one, and promiscuous mode is switched on and off between
   frames. Runs on the classic medium and on a one-shard duplex one. *)
let prop_receivers_match_walk =
  let op =
    QCheck.Gen.(
      frequency
        [
          (1, map2 (fun i v -> `Promisc (i, v)) (0 -- 7) bool);
          (* destination 0 is broadcast; 5 is a MAC no NIC carries *)
          (4, map2 (fun i d -> `Send (i, d)) (0 -- 7) (0 -- 5));
        ])
  in
  QCheck.Test.make ~name:"segment: receivers equal a walk of every NIC"
    ~count:200
    QCheck.(
      make
        Gen.(
          triple bool (list_size (1 -- 8) (1 -- 4)) (list_size (1 -- 30) op)))
    (fun (duplex, macs, ops) ->
      let seg, run =
        if duplex then
          let sh = Shard.create ~n:1 () in
          (Segment.create_duplex sh (), fun () -> Shard.run ~domains:false sh)
        else
          let eng = Engine.create () in
          (Segment.create eng (), fun () -> Engine.run eng)
      in
      let macs = Array.of_list macs in
      let n = Array.length macs in
      let nics =
        Array.map
          (fun id -> Segment.attach seg ~mac:(Macaddr.of_host_id id))
          macs
      in
      let promisc = Array.make n false in
      let heard = ref [] in
      Array.iteri
        (fun i nic -> Segment.set_rx nic (fun _ -> heard := i :: !heard))
        nics;
      List.for_all
        (function
          | `Promisc (i, v) ->
            let i = i mod n in
            Segment.set_promiscuous nics.(i) v;
            promisc.(i) <- v;
            true
          | `Send (i, d) ->
            let src = i mod n in
            let dst =
              if d = 0 then Macaddr.broadcast else Macaddr.of_host_id d
            in
            heard := [];
            Segment.transmit nics.(src)
              (mk_frame ~dst ~src:(Segment.mac nics.(src)) ~len:64);
            run ();
            let want =
              List.filter
                (fun r -> r <> src && (promisc.(r) || d = 0 || macs.(r) = d))
                (List.init n Fun.id)
            in
            List.rev !heard = want)
        ops)

let () =
  Alcotest.run "psd_link"
    [
      ( "macaddr",
        [
          Alcotest.test_case "roundtrip" `Quick test_macaddr_roundtrip;
          Alcotest.test_case "broadcast" `Quick test_macaddr_broadcast;
          Alcotest.test_case "pp" `Quick test_macaddr_pp;
          QCheck_alcotest.to_alcotest prop_macaddr_equal_bytes;
        ] );
      ("frame", [ Alcotest.test_case "header" `Quick test_frame_header ]);
      ( "segment",
        [
          Alcotest.test_case "unicast" `Quick test_unicast_delivery;
          Alcotest.test_case "dst filter" `Quick test_wrong_dst_filtered;
          Alcotest.test_case "broadcast" `Quick test_broadcast_delivery;
          Alcotest.test_case "promiscuous" `Quick test_promiscuous;
          QCheck_alcotest.to_alcotest prop_receivers_match_walk;
          Alcotest.test_case "wire rate" `Quick
            test_serialization_at_wire_rate;
          Alcotest.test_case "fifo" `Quick test_fifo_back_to_back;
          Alcotest.test_case "padding" `Quick test_min_frame_padding;
          Alcotest.test_case "giant rejected" `Quick
            test_giant_frame_rejected;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "throughput bound" `Quick test_throughput_bound;
        ] );
      ( "fault",
        [
          Alcotest.test_case "null passthrough" `Quick
            test_fault_null_passthrough;
          Alcotest.test_case "drop all" `Quick test_fault_drop_all;
          Alcotest.test_case "duplicate" `Quick test_fault_duplicate;
          Alcotest.test_case "corrupt scoped" `Quick
            test_fault_corrupt_scoped;
          Alcotest.test_case "same seed, same schedule" `Quick
            test_fault_same_seed_same_schedule;
          Alcotest.test_case "segment wiring" `Quick test_fault_on_segment;
        ] );
    ]
