(* Per-layer replays for the traced run: frames captured off a
   workload-shaped topology by a promiscuous NIC are fed again through
   the public decode and demultiplex entry points of single layers, and
   the engine's public scheduling calls are replayed at a workload's
   event mix. Each result is wall ns per item. *)

open Common
module Engine = Psd_sim.Engine

let eth = Psd_link.Frame.header_size

(* Frames seen on the segment while each configuration's pair resolves
   ARP, opens a connection, echoes [msg_len] bytes, echoes one UDP
   datagram and closes. *)
let capture ~seed ~configs ~msg_len =
  let frames = ref [] in
  List.iter
    (fun config ->
      let p = Pair.create ~seed config in
      let nic =
        Psd_link.Segment.attach p.Pair.seg
          ~mac:(Psd_link.Macaddr.of_host_id 0xffffe)
      in
      Psd_link.Segment.set_promiscuous nic true;
      Psd_link.Segment.set_rx nic (fun f -> frames := Bytes.copy f :: !frames);
      ignore
        (Pair.client p (fun () ->
             let s = Pair.connect p in
             ignore (Pair.echo_stream s (String.make msg_len 'c'));
             Pair.close s;
             let u = Psd_core.Sockets.dgram p.Pair.capp in
             ignore (Psd_core.Sockets.bind u ());
             ignore
               (Psd_core.Sockets.send u
                  ~dst:(Psd_core.System.addr p.Pair.srv, Pair.echo_port)
                  "u");
             ignore (Psd_core.Sockets.recv u ~max:64)));
      Pair.drain p)
    configs;
  List.rev !frames

type ipframe = { frame : Bytes.t; hdr : Psd_ip.Header.t; ihl : int }

let ip_frames frames =
  List.filter_map
    (fun f ->
      if Psd_link.Frame.ethertype f <> Psd_link.Frame.ethertype_ip then None
      else
        match
          Psd_ip.Header.decode f ~off:eth ~len:(Bytes.length f - eth)
        with
        | Ok hdr ->
          Some { frame = f; hdr; ihl = (Bytes.get_uint8 f eth land 0xf) * 4 }
        | Error _ -> None)
    frames

(* Run [f] over [items] until about [budget_ns] of wall has passed
   (whole passes only); ns per item. *)
let per_item name ~budget_ns items f =
  let n = List.length items in
  if n = 0 then 0.
  else
    Span.run name (fun () ->
        let t0 = now_ns () in
        let passes = ref 0 in
        while now_ns () - t0 < budget_ns || !passes = 0 do
          List.iter f items;
          incr passes
        done;
        float_of_int (now_ns () - t0) /. float_of_int (!passes * n))

let budget_ns = 100_000_000

(* BPF demultiplexing: every frame against the session filters of the
   connections captured (flat fast path) and the compiled [ip_all] and
   [arp] programs, as the kernel's filter chain meets them. *)
let bpf_demux frames ipf =
  let sessions =
    List.sort_uniq compare
      (List.filter_map
         (fun x ->
           let p = x.hdr.Psd_ip.Header.proto in
           if p <> 6 && p <> 17 then None
           else
             let t = eth + x.ihl in
             Some
               {
                 Psd_bpf.Filter.proto =
                   (if p = 6 then Psd_bpf.Filter.Tcp else Psd_bpf.Filter.Udp);
                 local_ip = Psd_ip.Addr.to_int x.hdr.Psd_ip.Header.dst;
                 local_port = Bytes.get_uint16_be x.frame (t + 2);
                 remote_ip = Some (Psd_ip.Addr.to_int x.hdr.Psd_ip.Header.src);
                 remote_port = Some (Bytes.get_uint16_be x.frame t);
               })
         ipf)
  in
  let flats = List.map Psd_bpf.Filter.flat_of_spec sessions in
  let ip_all = Psd_bpf.Compile.compile_exn Psd_bpf.Filter.ip_all in
  let arp = Psd_bpf.Compile.compile_exn Psd_bpf.Filter.arp in
  per_item "replay.bpf" ~budget_ns frames (fun f ->
      let rec first = function
        | [] -> ()
        | fl :: rest ->
          if fst (Psd_bpf.Filter.flat_run fl f) = 0 then first rest
      in
      first flats;
      ignore (Psd_bpf.Compile.run ip_all f);
      ignore (Psd_bpf.Compile.run arp f))

let ip_decode ipf =
  per_item "replay.ip" ~budget_ns ipf (fun x ->
      ignore
        (Psd_ip.Header.decode x.frame ~off:eth
           ~len:(Bytes.length x.frame - eth)))

let tcp_decode ipf =
  let tcp = List.filter (fun x -> x.hdr.Psd_ip.Header.proto = 6) ipf in
  per_item "replay.tcp" ~budget_ns tcp (fun x ->
      let h = x.hdr in
      match
        Psd_tcp.Segment.decode ~off:(eth + x.ihl)
          ~len:(h.Psd_ip.Header.total_len - x.ihl)
          x.frame ~src:h.Psd_ip.Header.src ~dst:h.Psd_ip.Header.dst
      with
      | Ok _ -> ()
      | Error _ -> failwith "captured TCP segment does not decode")

let checksum ~seed =
  let rng = Random.State.make [| seed |] in
  let kb = Bytes.init 1024 (fun _ -> Char.chr (Random.State.int rng 256)) in
  per_item "replay.util" ~budget_ns [ kb ] (fun b ->
      ignore (Psd_util.Checksum.of_bytes b ~off:0 ~len:1024))

(* The engine's public calls at a workload's mix: per op, [cb] plain
   callbacks, one fiber that sleeps, and [tm] timers armed then
   re-armed (a segment's retransmit timer) and cancelled. *)
let engine ~events_per_op ~timers_per_op =
  Span.run "replay.sim" (fun () ->
      let cb = max 1 (int_of_float events_per_op) in
      let tm = max 1 (int_of_float timers_per_op) in
      let t0 = now_ns () in
      let events = ref 0 and passes = ref 0 in
      while now_ns () - t0 < budget_ns || !passes = 0 do
        let eng = Engine.create () in
        let timers = Array.init tm (fun _ -> Engine.timer ()) in
        for op = 1 to 100 do
          for i = 1 to cb do
            Engine.schedule eng (op * 1000 + i) ignore
          done;
          Engine.spawn eng (fun () -> Engine.sleep eng 10);
          Array.iter
            (fun t ->
              Engine.timer_arm eng t 500_000 ignore;
              Engine.timer_arm eng t 600_000 ignore)
            timers;
          Engine.run_for eng 1000;
          Array.iter (Engine.timer_cancel eng) timers
        done;
        events := !events + Engine.events_scheduled eng;
        incr passes
      done;
      float_of_int (now_ns () - t0) /. float_of_int (max 1 !events))
