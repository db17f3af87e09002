(* The four workloads. Each is a closed loop driven from one process and
   one OCaml domain: [prepare] runs once before the timed phase,
   [rotation] runs one round of timed ops and returns its virtual-time
   results, one line per group of ops, with the number of ops the line
   covers. A rotation's virtual results are a pure function of the seed,
   so every rotation of a run must return the same lines. *)

open Psd_core
open Common
module Cfg = Psd_cost.Config
module Engine = Psd_sim.Engine

type size = Default | Tiny

type t = {
  prepare : unit -> unit;
  rotation : unit -> (string * int) list;
  capture_msg : int;  (* echo size of the frame capture for the replays *)
  capture_configs : Cfg.t list;
  trace_rotations : int;  (* fixed length of the traced run's passes *)
  hosts_in_setup : bool;
      (* the timed ops build their hosts out of reach (Scale.run): host-side
         counts come from the set-up's warm-up connections instead *)
}

(* The six DECstation rows of Table 2, then Library-NEWAPI-SHM-IPF and
   Smart-NIC Offload. *)
let rotation_configs =
  Cfg.decstation_rows @ [ Cfg.library_newapi_shm_ipf; Cfg.offload ]

let seeded_string rng n =
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let hash_add h v = ((h * 31) + v) land 0x3fffffff

(* ---- set-up shared by the two-host workloads ------------------------- *)

(* Open [hold] connections on each pair, echo [msg] over each, sample the
   heap with all of them open (first set-up only), then close them. The
   warm-up resolves ARP, completes handshakes and runs the first
   slow-start rounds before any timed op. *)
let warm_pairs ?(breakdown = true) ~pause ~hold ~msg pairs =
  let a = !Acc.cur in
  List.iter Pair.settle pairs;
  let sample = Float.is_nan a.bytes_per_conn in
  let base = if sample then pause Acc.live_words else 0 in
  let held =
    List.map
      (fun p ->
        let before = Pair.snapshot p in
        if breakdown then System.set_breakdown p.Pair.cli (Some a.breakdown);
        let socks = ref [] in
        let err =
          Pair.client p (fun () ->
              for _ = 1 to hold do
                let s = Pair.connect p in
                socks := s :: !socks;
                if not (Pair.echo_stream s msg) then
                  failwith "warm-up echo corrupt"
              done)
        in
        System.set_breakdown p.Pair.cli None;
        Option.iter
          (fun e ->
            a.attempted <- a.attempted + 1;
            Acc.fail ("warm-up " ^ p.Pair.config.Cfg.label ^ ": " ^ e))
          err;
        Counts.add_into a.warm ~after:(Pair.snapshot p) ~before;
        a.warm_conns <- a.warm_conns + hold;
        if breakdown then a.breakdown_ops <- a.breakdown_ops + hold;
        (p, !socks))
      pairs
  in
  if sample then begin
    let peak = pause Acc.live_words in
    a.bytes_per_conn <-
      float_of_int ((peak - base) * 8)
      /. float_of_int (max 1 (hold * List.length pairs))
  end;
  List.iter
    (fun (p, socks) ->
      ignore (Pair.client p (fun () -> List.iter Pair.close socks)))
    held

(* Close-down of a rotation's pairs: drain TIME_WAIT, then every stack
   must hold no PCB and balance its pool ledger, or the pair's ops
   fail. *)
let finish_pair p ~ops =
  Pair.drain p;
  if not (Pair.drained p) then
    Acc.fail ~ops ("PCB leak or pool ledger mismatch: " ^ p.Pair.config.Cfg.label)

(* ---- rpc: 1-byte TCP and UDP echoes over the placement rotation ------ *)

let rpc ~seed ~size =
  let k = match size with Default -> 250 | Tiny -> 10 in
  let rng = Random.State.make [| seed |] in
  let cell_tcp p =
    let a = !Acc.cur in
    let h = ref 0 and vsum = ref 0 and good = ref 0 in
    let err =
      Pair.client p (fun () ->
          let s = Pair.connect p in
          a.conns <- a.conns + 1;
          for _ = 1 to k do
            let msg = seeded_string rng 1 in
            let w0 = now_ns () and v0 = Engine.now p.Pair.eng in
            let same = Pair.echo_stream s msg in
            let dv = Engine.now p.Pair.eng - v0 in
            Samples.add a.lat (now_ns () - w0);
            h := hash_add !h dv;
            vsum := !vsum + dv;
            if same then begin
              incr good;
              a.payload <- a.payload + 2;
              a.round_trips <- a.round_trips + 1
            end
          done;
          Pair.close s)
    in
    a.attempted <- a.attempted + k;
    a.virtual_ns <- a.virtual_ns + !vsum;
    if !good < k then
      Acc.fail ~ops:(k - !good)
        (Printf.sprintf "rpc tcp %s: %s" p.Pair.config.Cfg.label
           (Option.value err ~default:"echo corrupt"));
    ( Printf.sprintf "rpc tcp %-34s k=%d rtt_sum_ns=%d hash=%x"
        p.Pair.config.Cfg.label k !vsum !h,
      k )
  in
  let cell_udp p =
    let a = !Acc.cur in
    let h = ref 0 and vsum = ref 0 and good = ref 0 in
    let err =
      Pair.client p (fun () ->
          let s = Sockets.dgram p.Pair.capp in
          ignore (ok "udp bind" (Sockets.bind s ()));
          ok "udp connect" (Sockets.connect s (System.addr p.Pair.srv) Pair.echo_port);
          for _ = 1 to k do
            let msg = seeded_string rng 1 in
            let w0 = now_ns () and v0 = Engine.now p.Pair.eng in
            ignore
              (ok "udp send"
                 (Span.leaf "socket.send" (fun () -> Sockets.send s msg)));
            let reply =
              ok "udp recv"
                (Span.leaf "socket.recv" (fun () -> Sockets.recv s ~max:64))
            in
            let dv = Engine.now p.Pair.eng - v0 in
            Samples.add a.lat (now_ns () - w0);
            h := hash_add !h dv;
            vsum := !vsum + dv;
            if String.equal reply msg then begin
              incr good;
              a.payload <- a.payload + 2;
              a.round_trips <- a.round_trips + 1
            end
          done;
          Pair.close s)
    in
    a.attempted <- a.attempted + k;
    a.virtual_ns <- a.virtual_ns + !vsum;
    if !good < k then
      Acc.fail ~ops:(k - !good)
        (Printf.sprintf "rpc udp %s: %s" p.Pair.config.Cfg.label
           (Option.value err ~default:"echo corrupt"));
    ( Printf.sprintf "rpc udp %-34s k=%d rtt_sum_ns=%d hash=%x"
        p.Pair.config.Cfg.label k !vsum !h,
      k )
  in
  let rotation () =
    let pairs =
      Acc.setup (fun pause ->
          let pairs =
            List.map (fun c -> Pair.create ~seed c) rotation_configs
          in
          warm_pairs ~breakdown:false ~pause ~hold:1 ~msg:"w" pairs;
          pairs)
    in
    let a = !Acc.cur in
    List.concat_map
      (fun p ->
        let before = Pair.snapshot p in
        if !Acc.breakdown_round_trips then begin
          System.set_breakdown p.Pair.cli (Some a.breakdown);
          a.breakdown_ops <- a.breakdown_ops + (2 * k)
        end;
        let lines =
          Acc.timed (fun () ->
              let l = [ cell_tcp p; cell_udp p ] in
              finish_pair p ~ops:(2 * k);
              l)
        in
        Counts.add_into a.counts ~after:(Pair.snapshot p) ~before;
        lines)
      pairs
  in
  {
    prepare = ignore;
    rotation;
    capture_msg = 1;
    capture_configs = rotation_configs;
    trace_rotations = (match size with Default -> 40 | Tiny -> 1);
    hosts_in_setup = false;
  }

(* ---- churn: open, echo 1 KB, close, back to back ---------------------- *)

let churn ~seed ~size =
  let m = match size with Default -> 200 | Tiny -> 5 in
  let configs = [ Cfg.library_shm_ipf; Cfg.mach25_kernel ] in
  let rng = Random.State.make [| seed |] in
  let cell p =
    let a = !Acc.cur in
    let h = ref 0 and vsum = ref 0 and good = ref 0 in
    let err =
      Pair.client p (fun () ->
          for _ = 1 to m do
            let msg = seeded_string rng 1024 in
            let w0 = now_ns () and v0 = Engine.now p.Pair.eng in
            let s = Pair.connect p in
            let same = Pair.echo_stream s msg in
            Pair.close s;
            let dv = Engine.now p.Pair.eng - v0 in
            Samples.add a.lat (now_ns () - w0);
            h := hash_add !h dv;
            vsum := !vsum + dv;
            if same then begin
              incr good;
              a.payload <- a.payload + 2048;
              a.round_trips <- a.round_trips + 1;
              a.conns <- a.conns + 1
            end
          done)
    in
    a.attempted <- a.attempted + m;
    a.virtual_ns <- a.virtual_ns + !vsum;
    if !good < m then
      Acc.fail ~ops:(m - !good)
        (Printf.sprintf "churn %s: %s" p.Pair.config.Cfg.label
           (Option.value err ~default:"echo corrupt"));
    ( Printf.sprintf "churn %-34s m=%d conn_sum_ns=%d hash=%x"
        p.Pair.config.Cfg.label m !vsum !h,
      m )
  in
  let rotation () =
    let pairs =
      Acc.setup (fun pause ->
          let pairs = List.map (fun c -> Pair.create ~seed c) configs in
          warm_pairs ~pause ~hold:4 ~msg:(String.make 1024 'w') pairs;
          pairs)
    in
    let a = !Acc.cur in
    List.map
      (fun p ->
        let before = Pair.snapshot p in
        let line =
          Acc.timed (fun () ->
              let l = cell p in
              finish_pair p ~ops:m;
              l)
        in
        Counts.add_into a.counts ~after:(Pair.snapshot p) ~before;
        line)
      pairs
  in
  {
    prepare = ignore;
    rotation;
    capture_msg = 1024;
    capture_configs = configs;
    trace_rotations = (match size with Default -> 25 | Tiny -> 1);
    hosts_in_setup = false;
  }

(* ---- bulk: one ttcp flow at a time over the placement rotation ------- *)

let bulk ~seed ~size =
  let mb = match size with Default -> 2 | Tiny -> 1 in
  let prepare () =
    (* The set-up Ttcp.run performs before its transfer, through the same
       public APIs: both hosts of every placement, connection, and the
       first 64 KB of slow start. *)
    for _ = 1 to (match size with Default -> 5 | Tiny -> 1) do
      Acc.setup (fun pause ->
          let pairs =
            List.map (fun c -> Pair.create ~seed c) rotation_configs
          in
          warm_pairs ~pause ~hold:1 ~msg:(String.make 65536 'w') pairs)
    done
  in
  let flow config =
    let a = !Acc.cur in
    a.attempted <- a.attempted + 1;
    let probe ~sender ~receiver =
      let hosts = [ (sender, []); (receiver, []) ] in
      let eng = Psd_mach.Host.eng (System.host sender) in
      Counts.add_into a.counts
        ~after:(Counts.snapshot eng hosts)
        ~before:(Counts.zero ());
      (* Ttcp's receiver never closes its end, so only the ledger is
         checked here *)
      if not (Counts.drained ~pcbs:false hosts) then
        Acc.fail "bulk: pool ledger mismatch"
    in
    match
      Span.run "workloads.ttcp" (fun () ->
          Psd_workloads.Ttcp.run ~mb ~seed ~probe config)
    with
    | r ->
      a.virtual_ns <- a.virtual_ns + r.Psd_workloads.Ttcp.elapsed_ns;
      a.payload <- a.payload + r.Psd_workloads.Ttcp.bytes;
      a.round_trips <- a.round_trips + 1;
      a.conns <- a.conns + 1;
      ( Printf.sprintf "bulk %-34s mb=%d elapsed_ns=%d segs_out=%d kb_per_sec=%.6f"
          config.Cfg.label mb r.Psd_workloads.Ttcp.elapsed_ns
          r.Psd_workloads.Ttcp.segs_out r.Psd_workloads.Ttcp.kb_per_sec,
        1 )
    | exception e ->
      Acc.fail ("bulk " ^ config.Cfg.label ^ ": " ^ Printexc.to_string e);
      ("bulk " ^ config.Cfg.label ^ " failed", 1)
  in
  (* The op timed is the whole rotation, one flow per placement: single
     flows mix eight placements of different cost, and the tail of that
     mixture sits on the boundary between two of them. *)
  let rotation () =
    let w0 = now_ns () in
    let lines = Acc.timed (fun () -> List.map flow rotation_configs) in
    Samples.add !Acc.cur.lat (now_ns () - w0);
    lines
  in
  {
    prepare;
    rotation;
    capture_msg = 65536;
    capture_configs = rotation_configs;
    trace_rotations = (match size with Default -> 12 | Tiny -> 1);
    hosts_in_setup = false;
  }

(* ---- farm: Scale-shaped concurrent connections through a gateway ----- *)

let farm ~seed ~size =
  let conns, per_host =
    match size with Default -> (600, 2) | Tiny -> (60, 4)
  in
  let hosts = (conns + per_host - 1) / per_host in
  let ping = 64 in
  (* Set-up of the farm shape, through the public APIs: the server and
     client hosts on their /24 segments, the gateway, routes, the echo
     listener, and one warm-up echo per client host (ARP through the
     gateway, handshakes). Scale.run builds the same shape itself. *)
  let prepare_once () =
    Acc.setup (fun _ ->
        let a = !Acc.cur in
        let eng = Engine.create ~seed () in
        let nsegs = (hosts + 249) / 250 in
        let segs = Array.init nsegs (fun _ -> Psd_link.Segment.create eng ~bps:100_000_000 ()) in
        let seg_srv = Psd_link.Segment.create eng ~bps:100_000_000 () in
        let config = Cfg.mach25_kernel in
        let server =
          Span.run "core.system_create" (fun () ->
              System.create ~eng ~segment:seg_srv ~config ~addr:"10.1.0.1"
                ~name:"srv" ())
        in
        let clients =
          Array.init hosts (fun h ->
              Span.run "core.system_create" (fun () ->
                  System.create ~eng ~segment:segs.(h / 250) ~config
                    ~addr:(Printf.sprintf "10.0.%d.%d" ((h / 250) + 1) ((h mod 250) + 1))
                    ~name:(Printf.sprintf "cli%d" h) ()))
        in
        ignore
          (Router.create ~eng ~name:"gw"
             ~ifaces:
               (List.init nsegs (fun k -> (segs.(k), Printf.sprintf "10.0.%d.254" (k + 1)))
               @ [ (seg_srv, "10.1.0.254") ])
             ());
        Array.iteri
          (fun h sys ->
            System.add_route sys ~net:"10.1.0.0" ~mask:"255.255.255.0"
              ~gateway:(Printf.sprintf "10.0.%d.254" ((h / 250) + 1)))
          clients;
        for k = 0 to nsegs - 1 do
          System.add_route server ~net:(Printf.sprintf "10.0.%d.0" (k + 1))
            ~mask:"255.255.255.0" ~gateway:"10.1.0.254"
        done;
        let sapp = Span.run "core.app_create" (fun () -> System.app server ~name:"srv") in
        let capps =
          Array.mapi
            (fun h sys ->
              Span.run "core.app_create" (fun () ->
                  System.app sys ~name:(Printf.sprintf "cli%d" h)))
            clients
        in
        Engine.spawn eng (fun () ->
            let l = Sockets.stream sapp in
            ignore (ok "farm bind" (Sockets.bind l ~port:4000 ()));
            ok "farm listen" (Sockets.listen l ~backlog:4096 ());
            let rec loop () =
              match Sockets.accept l with
              | Ok c ->
                Pair.serve_stream eng c;
                loop ()
              | Error _ -> ()
            in
            loop ());
        let all =
          (server, [ sapp ])
          :: Array.to_list (Array.mapi (fun h sys -> (sys, [ capps.(h) ])) clients)
        in
        Array.iter (fun sys -> System.set_breakdown sys (Some a.breakdown)) clients;
        let before = Counts.snapshot eng all in
        let done_ = ref 0 and bad = ref 0 in
        let msg = String.make ping 'w' in
        (* staggered like Scale's ramp, so the warm-up does not start
           with a SYN storm *)
        Array.iteri
          (fun h capp ->
            Engine.spawn eng (fun () ->
                Engine.sleep eng (h * Psd_sim.Time.ms 2);
                (try
                   let s = Sockets.stream capp in
                   ok "farm warm connect"
                     (Span.leaf "socket.connect" (fun () ->
                          Sockets.connect s (System.addr server) 4000));
                   ignore (ok "farm warm send" (Sockets.send s msg));
                   let got = ref 0 in
                   while !got < ping do
                     match Sockets.recv s ~max:ping with
                     | Ok "" | Error _ -> failwith "eof"
                     | Ok d -> got := !got + String.length d
                   done;
                   Span.leaf "socket.close" (fun () -> Sockets.close s)
                 with _ -> incr bad);
                incr done_))
          capps;
        while !done_ < hosts do
          Span.run "sim.run" (fun () -> Engine.run_for eng (Psd_sim.Time.ms 200))
        done;
        Array.iter (fun sys -> System.set_breakdown sys None) clients;
        if !bad > 0 then begin
          a.attempted <- a.attempted + !bad;
          Acc.fail ~ops:!bad "farm warm-up connections failed"
        end;
        Counts.add_into a.warm ~after:(Counts.snapshot eng all) ~before;
        a.warm_conns <- a.warm_conns + hosts;
        a.breakdown_ops <- a.breakdown_ops + hosts)
  in
  let prepare () =
    for _ = 1 to (match size with Default -> 5 | Tiny -> 1) do
      prepare_once ()
    done
  in
  let rotation () =
    let a = !Acc.cur in
    let w0 = now_ns () in
    let r =
      Acc.timed (fun () ->
          Span.run "workloads.scale" (fun () ->
              Psd_workloads.Scale.run ~conns ~per_host ~seed ()))
    in
    Samples.add a.lat (now_ns () - w0);
    a.attempted <- a.attempted + conns;
    match r with
    | Error e ->
      Acc.fail ~ops:conns (Format.asprintf "farm: %a" Psd_workloads.Scale.pp_error e);
      [ ("farm error", conns) ]
    | Ok r ->
      let open Psd_workloads.Scale in
      if Float.is_nan a.bytes_per_conn then a.bytes_per_conn <- r.bytes_per_conn;
      let leak = r.final_pcbs <> 0 || r.pool_free <> r.pool_puts - r.pool_hits in
      let bad = if leak then conns else conns - r.echoed in
      if bad > 0 then
        Acc.fail ~ops:bad
          (Printf.sprintf "farm: echoed %d of %d, final_pcbs %d, pool %d/%d/%d"
             r.echoed conns r.final_pcbs r.pool_hits r.pool_puts r.pool_free);
      a.payload <- a.payload + (2 * ping * r.echoed);
      a.round_trips <- a.round_trips + r.echoed;
      a.conns <- a.conns + r.echoed;
      let c = a.counts in
      let bump i v = c.(i) <- c.(i) + v in
      bump Counts.events r.events;
      a.virtual_ns <- a.virtual_ns + r.virtual_ns;
      bump Counts.rexmt r.rexmt_segs;
      bump Counts.pool_fresh r.pool_fresh;
      bump Counts.pool_hits r.pool_hits;
      bump Counts.pool_puts r.pool_puts;
      [
        ( Printf.sprintf
            "farm conns=%d hosts=%d segments=%d connected=%d echoed=%d \
             failed=%d peak_pcbs=%d events=%d virtual_ns=%d rexmt_segs=%d \
             injected=%d final_pcbs=%d pool=%d/%d/%d/%d"
            r.conns r.hosts r.segments r.connected r.echoed r.failed
            r.peak_pcbs r.events r.virtual_ns r.rexmt_segs r.injected
            r.final_pcbs r.pool_fresh r.pool_hits r.pool_puts r.pool_free,
          conns );
      ]
  in
  {
    prepare;
    rotation;
    capture_msg = ping;
    capture_configs = [ Cfg.mach25_kernel ];
    trace_rotations = (match size with Default -> 10 | Tiny -> 1);
    hosts_in_setup = true;
  }

let names = [ "bulk"; "rpc"; "farm"; "churn" ]

let make name ~seed ~size =
  match name with
  | "bulk" -> bulk ~seed ~size
  | "rpc" -> rpc ~seed ~size
  | "farm" -> farm ~seed ~size
  | "churn" -> churn ~seed ~size
  | _ -> invalid_arg ("unknown workload " ^ name)
