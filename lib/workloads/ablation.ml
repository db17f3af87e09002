module Cfg = Psd_cost.Config
open Psd_core

let delivery () =
  let results =
    List.map
      (fun config ->
        let tp = Ttcp.run ~mb:8 config in
        let lat = Protolat.run ~proto:Protolat.Udp ~size:1 config in
        (config.Cfg.label, tp.Ttcp.kb_per_sec, lat.Protolat.rtt_ms))
      [ Cfg.library_ipc; Cfg.library_shm; Cfg.library_shm_ipf ]
  in
  Format.printf "@.=== Ablation: kernel packet-delivery variant ===@.";
  List.iter
    (fun (label, tp, rtt) ->
      Format.printf "  %-36s %6.0f KB/s   %5.2f ms (1B UDP rtt)@." label tp
        rtt)
    results;
  Format.printf
    "  (IPC->SHM isolates wakeup batching; SHM->SHM-IPF isolates the \
     deferred device copy)@.";
  results

let ack_strategy () =
  let delayed = Ttcp.run ~mb:8 Cfg.library_shm_ipf in
  (* delack timer of ~0 makes every segment generate an immediate ack *)
  let immediate = Ttcp.run ~mb:8 ~delack_ns:1 Cfg.library_shm_ipf in
  let results =
    [
      ("delayed acks (every other segment)", delayed.Ttcp.kb_per_sec);
      ("ack every segment", immediate.Ttcp.kb_per_sec);
    ]
  in
  Format.printf "@.=== Ablation: acknowledgement strategy (Library-SHM-IPF) ===@.";
  List.iter
    (fun (label, tp) -> Format.printf "  %-36s %6.0f KB/s@." label tp)
    results;
  results

let sync_weight ?(rounds = 300) () =
  let base = Psd_cost.Platform.decstation in
  let heavy =
    { base with Psd_cost.Platform.sync_light = base.Psd_cost.Platform.sync_heavy }
  in
  let run plat =
    (Protolat.run ~plat ~rounds ~proto:Protolat.Tcp ~size:1
       Cfg.library_shm_ipf)
      .Protolat.rtt_ms
  in
  let results =
    [
      ("library locks (normal)", run base);
      ("simulated priority levels (server's)", run heavy);
    ]
  in
  Format.printf
    "@.=== Ablation: synchronisation weight in the protocol library ===@.";
  List.iter
    (fun (label, ms) -> Format.printf "  %-40s %5.2f ms (1B TCP rtt)@." label ms)
    results;
  results

let bufsize_sweep ?(mb = 8) ?(sizes_kb = [ 4; 8; 16; 24; 32; 48; 63 ]) config
    =
  let results =
    List.map
      (fun kb ->
        let r = Ttcp.run ~mb ~rcv_buf:(kb * 1024) config in
        (kb, r.Ttcp.kb_per_sec))
      sizes_kb
  in
  Format.printf "@.=== Sweep: receive-buffer size, %s ===@." config.Cfg.label;
  List.iter
    (fun (kb, tp) -> Format.printf "  %3d KB -> %6.0f KB/s@." kb tp)
    results;
  results

let loss_sweep ?(mb = 2) () =
  let rates = [ 0.; 0.001; 0.005; 0.01; 0.02; 0.05 ] in
  let results =
    List.map
      (fun config ->
        let rows =
          List.map
            (fun rate ->
              let r =
                Ttcp.run ~mb ~fault:(Psd_link.Fault.drop_only rate) config
              in
              (rate, r.Ttcp.kb_per_sec, r.Ttcp.recovery.Ttcp.rexmt,
               r.Ttcp.recovery.Ttcp.fast_rexmt))
            rates
        in
        (config.Cfg.label, rows))
      Cfg.decstation_rows
  in
  Format.printf
    "@.=== Sweep: TCP goodput vs frame loss rate (%d MB per point) ===@." mb;
  Format.printf "  %-36s" "loss rate ->";
  List.iter (fun r -> Format.printf " %8.1f%%" (100. *. r)) rates;
  Format.printf "@.";
  List.iter
    (fun (label, rows) ->
      Format.printf "  %-36s" label;
      List.iter (fun (_, kbps, _, _) -> Format.printf " %8.0f " kbps) rows;
      Format.printf "@.  %36s" "(rexmt+fast)";
      List.iter
        (fun (_, _, rexmt, fast) -> Format.printf " %5d+%-3d" rexmt fast)
        rows;
      Format.printf "@.")
    results;
  Format.printf
    "  (all placements pay the same recovery machinery; loss compresses \
     the placement gap@.   because the wire, not per-byte processing, \
     becomes the bottleneck)@.";
  results

let loss_faults () =
  let mb = 4 and rate = 0.01 in
  let module F = Psd_link.Fault in
  let policies =
    [
      ("clean wire", F.none);
      ("drop", F.drop_only rate);
      ("duplicate", { F.none with F.duplicate = rate });
      ("reorder", { F.none with F.reorder = rate });
      ("corrupt", { F.none with F.corrupt = rate });
      ("chaos (all of the above)", F.chaos rate);
    ]
  in
  let results =
    List.map
      (fun (label, policy) ->
        let r = Ttcp.run ~mb ~fault:policy Cfg.library_shm_ipf in
        (label, r.Ttcp.kb_per_sec, r.Ttcp.recovery))
      policies
  in
  Format.printf
    "@.=== Ablation: fault class at %.1f%% rate (Library-SHM-IPF, %d MB) \
     ===@."
    (100. *. rate) mb;
  List.iter
    (fun (label, kbps, rec_) ->
      Format.printf "  %-26s %6.0f KB/s   %a@." label kbps Ttcp.pp_recovery
        rec_)
    results;
  Format.printf
    "  (drops cost a window each; duplicates and reordering only cost \
     dup-ack processing;@.   corruption is caught by the checksums and \
     then behaves like loss)@.";
  results

let migration_cost ?(conns = 20) ?(bytes_per_conn = 1024) () =
  let run config =
    let eng = Psd_sim.Engine.create ~seed:5 () in
    let segment = Psd_link.Segment.create eng () in
    let sys_a =
      System.create ~eng ~segment ~config ~addr:"10.0.0.1" ~name:"a" ()
    in
    let sys_b =
      System.create ~eng ~segment ~config ~addr:"10.0.0.2" ~name:"b" ()
    in
    let sapp = System.app sys_b ~name:"srv" in
    Psd_sim.Engine.spawn eng (fun () ->
        let s = Sockets.stream sapp in
        ignore (Sockets.bind s ~port:7 ());
        ignore (Sockets.listen s ~backlog:8 ());
        let rec serve () =
          match Sockets.accept s with
          | Ok c ->
            Psd_sim.Engine.spawn eng (fun () ->
                let rec drain () =
                  match Sockets.recv c ~max:65536 with
                  | Ok "" | Error _ -> Sockets.close c
                  | Ok _ -> drain ()
                in
                drain ());
            serve ()
          | Error _ -> ()
        in
        serve ());
    let capp = System.app sys_a ~name:"cli" in
    let per_conn = Psd_util.Stats.create () in
    let payload = String.make bytes_per_conn 'm' in
    Psd_sim.Engine.spawn eng (fun () ->
        for _ = 1 to conns do
          let t0 = Psd_sim.Engine.now eng in
          let s = Sockets.stream capp in
          (match Sockets.connect s (System.addr sys_b) 7 with
          | Ok () -> ()
          | Error e -> failwith e);
          ignore (Sockets.send s payload);
          Sockets.close s;
          Psd_util.Stats.add per_conn
            (float_of_int (Psd_sim.Engine.now eng - t0))
        done);
    Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 120);
    Psd_util.Stats.mean per_conn /. 1e6
  in
  let results =
    [
      ("Library placement (2 migrations/conn)", run Cfg.library_shm_ipf);
      ("Server placement (no migration)", run Cfg.ux_server);
      ("In-kernel (no migration)", run Cfg.mach25_kernel);
    ]
  in
  Format.printf
    "@.=== Ablation: session-migration cost per short connection (%d B \
     payload) ===@."
    bytes_per_conn;
  List.iter
    (fun (label, ms) -> Format.printf "  %-42s %6.2f ms/conn@." label ms)
    results;
  results
