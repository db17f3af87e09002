(* psd_bench: regenerate every table and figure of "Protocol Service
   Decomposition for High-Performance Networking" (SOSP 1993), plus the
   sweeps and ablations described in DESIGN.md. *)

open Cmdliner
module W = Psd_workloads
module Cfg = Psd_cost.Config

let machine_arg =
  let machine_conv =
    Arg.enum [ ("dec", W.Paper.Dec); ("gateway", W.Paper.Gateway) ]
  in
  Arg.(
    value
    & opt machine_conv W.Paper.Dec
    & info [ "machine" ] ~docv:"MACHINE"
        ~doc:"Platform: $(b,dec) (DECstation 5000/200) or $(b,gateway) \
              (Gateway 486).")

let mb_arg =
  Arg.(
    value
    & opt int 16
    & info [ "mb" ] ~docv:"MB"
        ~doc:"Megabytes per ttcp transfer (the paper used 16).")

let rounds_arg =
  Arg.(
    value
    & opt int 200
    & info [ "rounds" ] ~docv:"N" ~doc:"Round trips per latency cell.")

(* Every gated subcommand ends by handing its checks to [gate] as
   (what, held) pairs. The runner reports each check that failed as one
   FATAL line on stderr and then exits 1 once, so a regression names
   every broken claim rather than the first. *)
let gate checks =
  let failed = List.filter (fun (_, held) -> not held) checks in
  List.iter (fun (what, _) -> Format.eprintf "FATAL: %s@." what) failed;
  if failed <> [] then exit 1

let table1_cmd =
  let run () = W.Tables.table1 () in
  Cmd.v (Cmd.info "table1" ~doc:"Print the proxy interface (paper Table 1).")
    Term.(const run $ const ())

let figure1_cmd =
  let run () = W.Tables.figure1 () in
  Cmd.v
    (Cmd.info "figure1"
       ~doc:"Print the component placement of each configuration (Figure 1).")
    Term.(const run $ const ())

let table2_cmd =
  let run machine mb rounds =
    let rows = W.Tables.table2 ~machine ~mb ~rounds () in
    let name =
      match machine with W.Paper.Dec -> "DECstation 5000/200" | W.Paper.Gateway -> "Gateway 486"
    in
    W.Tables.print_rows ~header:("Table 2 — " ^ name) rows
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"TCP throughput and TCP/UDP round-trip latency for every \
             configuration (paper Table 2).")
    Term.(const run $ machine_arg $ mb_arg $ rounds_arg)

let table3_cmd =
  let run mb rounds =
    let rows = W.Tables.table3 ~mb ~rounds () in
    W.Tables.print_rows ~header:"Table 3 — NEWAPI (shared-buffer interface)"
      rows
  in
  Cmd.v
    (Cmd.info "table3"
       ~doc:"The modified (shared-buffer) socket interface (paper Table 3).")
    Term.(const run $ mb_arg $ rounds_arg)

let table4_cmd =
  let run rounds = ignore (W.Tables.table4 ~rounds ()) in
  Cmd.v
    (Cmd.info "table4"
       ~doc:"Per-layer latency breakdown for library, kernel and server \
             implementations (paper Table 4).")
    Term.(const run $ rounds_arg)

let sweep_cmd =
  let which =
    Arg.(
      value
      & pos 0 (enum [ ("bufsize", `Bufsize); ("loss", `Loss) ]) `Bufsize
      & info [] ~docv:"WHICH" ~doc:"$(b,bufsize) (default) or $(b,loss).")
  in
  let run which mb =
    match which with
    | `Bufsize ->
      List.iter
        (fun config -> ignore (W.Ablation.bufsize_sweep ~mb config))
        [ Cfg.mach25_kernel; Cfg.ux_server; Cfg.library_shm_ipf ]
    | `Loss -> ignore (W.Ablation.loss_sweep ~mb:(min mb 2) ())
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Parameter sweeps: $(b,bufsize) — throughput versus \
             receive-buffer size (how the paper found each \
             configuration's best buffer); $(b,loss) — goodput and \
             retransmissions versus injected frame-loss rate for all \
             six placements.")
    Term.(const run $ which $ mb_arg)

let ablation_cmd =
  let which =
    Arg.(
      value
      & pos 0 (enum
                 [ ("delivery", `Delivery); ("ack", `Ack); ("spl", `Spl);
                   ("migration", `Migration); ("loss", `Loss);
                   ("all", `All) ])
          `All
      & info [] ~docv:"WHICH"
          ~doc:"$(b,delivery), $(b,ack), $(b,spl), $(b,migration), \
                $(b,loss) or $(b,all).")
  in
  let run which =
    let dl () = ignore (W.Ablation.delivery ()) in
    let ack () = ignore (W.Ablation.ack_strategy ()) in
    let spl () = ignore (W.Ablation.sync_weight ()) in
    let mig () = ignore (W.Ablation.migration_cost ()) in
    let loss () = ignore (W.Ablation.loss_faults ()) in
    match which with
    | `Delivery -> dl ()
    | `Ack -> ack ()
    | `Spl -> spl ()
    | `Migration -> mig ()
    | `Loss -> loss ()
    | `All ->
      dl ();
      ack ();
      spl ();
      mig ();
      loss ()
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Ablations of the design choices: delivery variant, ack \
             strategy, synchronisation weight, migration cost, wire \
             fault class.")
    Term.(const run $ which)

let series_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 100
      & info [ "rounds" ] ~docv:"N" ~doc:"Round trips per point.")
  in
  let run rounds =
    (* figure-style artifact: UDP round-trip latency versus message size,
       one series per configuration — the data behind Table 2's latency
       columns at a finer grain *)
    let sizes = [ 1; 64; 128; 256; 512; 768; 1024; 1280; 1472 ] in
    let configs =
      [
        Cfg.mach25_kernel;
        Cfg.ux_server;
        Cfg.library_ipc;
        Cfg.library_shm;
        Cfg.library_shm_ipf;
      ]
    in
    Format.printf
      "@.=== Series: UDP round-trip latency (ms) vs message size ===@.";
    Format.printf "%-8s" "bytes";
    List.iter
      (fun (c : Cfg.t) ->
        let label = c.Cfg.label in
        let short =
          String.sub label (max 0 (String.length label - 15))
            (min 15 (String.length label))
        in
        Format.printf " %15s" short)
      configs;
    Format.printf "@.";
    List.iter
      (fun size ->
        Format.printf "%-8d" size;
        List.iter
          (fun config ->
            let r =
              W.Protolat.run ~rounds ~proto:W.Protolat.Udp ~size config
            in
            Format.printf " %15.2f" r.W.Protolat.rtt_ms)
          configs;
        Format.printf "@.")
      sizes;
    Format.printf
      "(series are linear in size with slopes set by per-byte costs:        checksum + copies + wire)@."
  in
  Cmd.v
    (Cmd.info "series"
       ~doc:"UDP latency versus message size, one series per configuration              (plot-ready).")
    Term.(const run $ rounds_arg)

let trace_cmd =
  let config_arg =
    let names =
      [
        ("kernel", Cfg.mach25_kernel);
        ("server", Cfg.ux_server);
        ("library-ipc", Cfg.library_ipc);
        ("library-shm", Cfg.library_shm);
        ("library-shm-ipf", Cfg.library_shm_ipf);
      ]
    in
    Arg.(
      value
      & opt (enum names) Cfg.library_shm_ipf
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:"Placement to trace: $(b,kernel), $(b,server),                 $(b,library-ipc), $(b,library-shm), $(b,library-shm-ipf).")
  in
  let run config =
    let open Psd_core in
    let eng = Psd_sim.Engine.create () in
    let segment = Psd_link.Segment.create eng () in
    let a =
      System.create ~eng ~segment ~config ~addr:"10.0.0.1" ~name:"a" ()
    in
    let b =
      System.create ~eng ~segment ~config ~addr:"10.0.0.2" ~name:"b" ()
    in
    let tap = Snoop.attach eng segment in
    let srv = System.app b ~name:"srv" in
    Psd_sim.Engine.spawn eng (fun () ->
        let l = Sockets.stream srv in
        ignore (Result.get_ok (Sockets.bind l ~port:7 ()));
        Result.get_ok (Sockets.listen l ());
        let c = Result.get_ok (Sockets.accept l) in
        let rec loop () =
          match Sockets.recv c ~max:65536 with
          | Ok "" -> Sockets.close c
          | Ok d ->
            ignore (Sockets.send c d);
            loop ()
          | Error _ -> ()
        in
        loop ());
    let cli = System.app a ~name:"cli" in
    Psd_sim.Engine.spawn eng (fun () ->
        let s = Sockets.stream cli in
        Result.get_ok (Sockets.connect s (System.addr b) 7);
        ignore (Result.get_ok (Sockets.send s (String.make 3000 'x')));
        let rec read n =
          if n < 3000 then
            match Sockets.recv s ~max:4096 with
            | Ok "" -> ()
            | Ok d -> read (n + String.length d)
            | Error _ -> ()
        in
        read 0;
        Sockets.close s);
    Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 10);
    Format.printf
      "trace of connect + 3000B echo + close under %s (%d frames):@."
      config.Cfg.label (Snoop.count tap);
    Format.printf "%a" Snoop.pp_trace tap
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a tcpdump-style decode of a small echo scenario on the              simulated wire.")
    Term.(const run $ config_arg)

let copies_cmd =
  let count_arg =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N" ~doc:"Datagrams per placement.")
  in
  let size_arg =
    Arg.(
      value & opt int 1024
      & info [ "size" ] ~docv:"BYTES" ~doc:"Datagram payload size.")
  in
  let run count size =
    Format.printf
      "@.=== Copies per packet (one-way UDP blast, %d x %dB) ===@.@." count
      size;
    List.iter
      (fun config ->
        let r = W.Copymeter.run ~count ~size config in
        Format.printf "%a@." W.Copymeter.pp r)
      (Cfg.decstation_rows @ Cfg.newapi_rows @ [ Cfg.offload ]);
    (* zero rx body copies and exactly one tx body copy per packet,
       announced on stdout only when both hold *)
    let zero_copy name config verified =
      let r = W.Copymeter.run ~count ~size config in
      let checks =
        [
          ( Printf.sprintf "copies: %s performed %d rx body copies (want 0)"
              name r.W.Copymeter.rx_body_copies,
            r.W.Copymeter.rx_body_copies = 0 );
          ( Printf.sprintf "copies: %s performed %d tx body copies (want %d)"
              name r.W.Copymeter.tx_body_copies r.W.Copymeter.sent,
            r.W.Copymeter.tx_body_copies = r.W.Copymeter.sent );
        ]
      in
      if List.for_all snd checks then
        Format.printf "%s verified: %s@." name verified;
      checks
    in
    (* The NEWAPI-SHM-IPF row is the paper's end state — zero receive
       body copies (the application reads the packet where the filter
       deposited it) and the single transmit gather. Enforce it here so
       the recorded bench output cannot silently regress. *)
    let newapi =
      zero_copy "NEWAPI-SHM-IPF" Cfg.library_newapi_shm_ipf
        "0 rx body copies, 1 tx gather per packet"
    in
    (* Same discipline for the Offload placement: the NIC DMAs each
       packet into the loaned buffer the application reads, so the host
       receive datapath must touch payload bytes exactly zero times,
       and transmit pays only the NIC's frame gather. *)
    let offload =
      zero_copy "Offload" Cfg.offload
        "0 host rx body copies, 1 NIC gather per packet"
    in
    gate (newapi @ offload)
  in
  Cmd.v
    (Cmd.info "copies"
       ~doc:"Count the data-touching copies each placement performs per \
             packet, transmit and receive (the measurement behind the \
             single-copy claim for the SHM-IPF datapath: one tx gather, \
             one rx delivery copy — and zero rx body copies under the \
             shared-buffer NEWAPI).")
    Term.(const run $ count_arg $ size_arg)

let offload_cmd =
  let mb_arg =
    Arg.(
      value & opt int 4
      & info [ "mb" ] ~docv:"MB"
          ~doc:"Megabytes per ttcp transfer (bulk cell and table rows).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 60
      & info [ "rounds" ] ~docv:"N" ~doc:"Round trips per latency cell.")
  in
  let run mb rounds =
    let open Psd_core in
    let nic =
      match Cfg.offload.Cfg.placement with
      | Cfg.Offload n -> n
      | _ -> Psd_cost.Platform.nic_default
    in
    Format.printf "@.=== Smart-NIC offload (%s, %d PEs, %d-slot ring) ===@.@."
      nic.Psd_cost.Platform.nic_name nic.Psd_cost.Platform.pes
      nic.Psd_cost.Platform.ring_slots;
    (* bulk-transfer cell: the N-PE pipeline against the same NIC with
       one processing element — FlexTOE's claim in miniature. Virtual
       time is deterministic, so the speedup is a recorded number, not
       a wall-clock measurement. *)
    let cell config =
      let nic_counters = ref [] in
      let probe ~sender ~receiver =
        let grab who sys =
          match System.nic_pipe sys with
          | Some p -> [ (who, Psd_mach.Nicpipe.counters p) ]
          | None -> []
        in
        nic_counters := grab "sender" sender @ grab "receiver" receiver
      in
      let r = W.Ttcp.run ~mb ~probe config in
      (r, !nic_counters)
    in
    let piped, piped_nic = cell Cfg.offload in
    let serial, _ = cell Cfg.offload_serial in
    Format.printf "%a@.%a@." W.Ttcp.pp piped W.Ttcp.pp serial;
    let speedup =
      float_of_int serial.W.Ttcp.elapsed_ns
      /. float_of_int piped.W.Ttcp.elapsed_ns
    in
    Format.printf "@.pipeline speedup (virtual time, %d PEs over 1): %.2fx@."
      nic.Psd_cost.Platform.pes speedup;
    List.iter
      (fun (who, cs) ->
        Format.printf "@.%s NIC pipeline:@.%a@." who
          Psd_util.Stats.pp_counters cs)
      piped_nic;
    let pipelined =
      ( Printf.sprintf
          "pipeline (%d PEs) no faster than 1 PE on the bulk cell (%d ns \
           vs %d ns)"
          nic.Psd_cost.Platform.pes piped.W.Ttcp.elapsed_ns
          serial.W.Ttcp.elapsed_ns,
        piped.W.Ttcp.elapsed_ns < serial.W.Ttcp.elapsed_ns )
    in
    (* latency cells (the Table 4 corner points) *)
    List.iter
      (fun (name, proto, size) ->
        let r = W.Protolat.run ~rounds ~proto ~size Cfg.offload in
        Format.printf "%-14s %8.3f ms rtt@." name r.W.Protolat.rtt_ms)
      [
        ("tcp_1", W.Protolat.Tcp, 1);
        ("tcp_1460", W.Protolat.Tcp, 1460);
        ("udp_1", W.Protolat.Udp, 1);
        ("udp_1472", W.Protolat.Udp, 1472);
      ];
    (* tables with the Offload column, and the regression gate: the
       classic rows of the extended run must be bit-identical to the
       seed tables (the offload row is opt-in; nothing about it may
       perturb an existing configuration's virtual time). *)
    let prefix n l = List.filteri (fun i _ -> i < n) l in
    let rows2 = W.Tables.table2 ~mb ~rounds ~with_offload:true () in
    let rows2_plain = W.Tables.table2 ~mb ~rounds () in
    let rows3 = W.Tables.table3 ~mb ~rounds ~with_offload:true () in
    let rows3_plain = W.Tables.table3 ~mb ~rounds () in
    let t2_ok = prefix (List.length rows2_plain) rows2 = rows2_plain in
    let t3_ok = prefix (List.length rows3_plain) rows3 = rows3_plain in
    W.Tables.print_rows ~header:"Table 2 + Offload — DECstation 5000/200"
      rows2;
    W.Tables.print_rows ~header:"Table 3 + Offload — NEWAPI" rows3;
    let t4 = W.Tables.table4 ~rounds ~with_offload:true () in
    let t4_plain = W.Tables.table4 ~rounds () in
    (* per (proto, size) case: every classic row of the extended table,
       restricted to its classic columns, must equal the seed row *)
    let classic_cols (r : W.Tables.breakdown_row) =
      {
        r with
        W.Tables.us =
          List.filter (fun (impl, _, _) -> impl <> "Offload") r.W.Tables.us;
      }
    in
    let t4_ok =
      List.for_all2
        (fun case case_plain ->
          let classic =
            List.filter
              (fun (r : W.Tables.breakdown_row) ->
                r.W.Tables.phase
                <> Psd_cost.Phase.label Psd_cost.Phase.Desc_crossing)
              case
          in
          List.length classic = List.length case_plain
          && List.for_all2
               (fun r r_plain -> classic_cols r = r_plain)
               classic case_plain)
        t4 t4_plain
    in
    if t2_ok && t3_ok && t4_ok then
      Format.printf
        "@.classic rows verified bit-identical with the Offload column \
         added@.";
    let classic n ok =
      ( Printf.sprintf "table%d classic rows changed under the offload run" n,
        ok )
    in
    gate [ pipelined; classic 2 t2_ok; classic 3 t3_ok; classic 4 t4_ok ]
  in
  Cmd.v
    (Cmd.info "offload"
       ~doc:"The Smart-NIC Offload placement: bulk-transfer cell with \
             N-PE pipeline versus 1-PE serialisation (exits nonzero \
             unless the pipeline is faster in virtual time), latency \
             cells, Tables 2/3/4 with the Offload column (exits \
             nonzero if any classic row changes), NIC pipeline \
             occupancy/stall counters.")
    Term.(const run $ mb_arg $ rounds_arg)

let predict_cmd =
  let mb_arg =
    Arg.(
      value & opt int 4
      & info [ "mb" ] ~docv:"MB" ~doc:"Megabytes per transfer.")
  in
  let run mb =
    Format.printf
      "@.=== TCP header prediction (ttcp bulk transfer, %d MB) ===@.@." mb;
    Format.printf "%-36s %10s %10s %9s@." "" "hits" "misses" "hit rate";
    List.iter
      (fun config ->
        let r = W.Ttcp.run ~mb config in
        let hit = r.W.Ttcp.recovery.W.Ttcp.predict_hit in
        let miss = r.W.Ttcp.recovery.W.Ttcp.predict_miss in
        let rate =
          if hit + miss = 0 then 0.
          else float_of_int hit /. float_of_int (hit + miss)
        in
        Format.printf "%-36s %10d %10d %8.1f%%@."
          config.Psd_cost.Config.label hit miss (100. *. rate))
      Cfg.decstation_rows
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Header-prediction hit rate per placement on the \
             steady-state ttcp bulk transfer (both hosts' stacks \
             summed): the share of synchronized-state segments that \
             match the Van Jacobson predicate. Every segment takes the \
             same input path; the predicate only classifies.")
    Term.(const run $ mb_arg)

let scale_cmd =
  let conns_arg =
    Arg.(
      value
      & opt (list int) [ 1_000; 10_000; 100_000 ]
      & info [ "conns" ] ~docv:"N,N,..."
          ~doc:"Concurrent-connection counts to sweep.")
  in
  let spacing_arg =
    Arg.(
      value & opt int 2000
      & info [ "spacing-us" ] ~docv:"US"
          ~doc:"Microseconds between consecutive connects.")
  in
  let hold_arg =
    Arg.(
      value & opt int 5
      & info [ "hold-s" ] ~docv:"S"
          ~doc:"Seconds every connection stays open past the ramp, so \
                all of them overlap at the sampling point.")
  in
  let seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")
  in
  let budget_arg =
    Arg.(
      value & opt int 0
      & info [ "budget-bytes" ] ~docv:"B"
          ~doc:"Fail (exit 1) if any sweep point exceeds this many bytes \
                per connection. 0 disables the bound; echo completion and \
                PCB leaks are checked either way.")
  in
  let run conns spacing_us hold_s seed budget =
    Format.printf "@.=== Control-plane scale sweep (%s) ===@.@."
      Cfg.mach25_kernel.Cfg.label;
    gate
      (List.concat_map
         (fun c ->
           match
             W.Scale.run ~conns:c
               ~spacing_ns:(Psd_sim.Time.us spacing_us)
               ~hold_ns:(Psd_sim.Time.sec hold_s) ~seed ()
           with
           | Error e ->
             [
               ( Format.asprintf "scale %d conns: %a" c W.Scale.pp_error e,
                 false );
             ]
           | Ok r ->
             Format.printf "%a@." W.Scale.pp r;
             [
               ( Printf.sprintf "%d conns: only %d echoed" c r.W.Scale.echoed,
                 r.W.Scale.echoed = r.W.Scale.conns );
               ( Printf.sprintf "%d conns: %d PCBs leaked" c
                   r.W.Scale.final_pcbs,
                 r.W.Scale.final_pcbs = 0 );
               ( Printf.sprintf "%d conns: %.0f B/conn over the %d B budget" c
                   r.W.Scale.bytes_per_conn budget,
                 budget <= 0 || r.W.Scale.bytes_per_conn <= float_of_int budget
               );
             ])
         conns)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Sweep concurrent TCP connection count (default 1k, 10k, \
             100k) through the gateway topology and report memory per \
             connection, events/sec, and wall-clock per simulated \
             second.")
    Term.(
      const run $ conns_arg $ spacing_arg $ hold_arg $ seed_arg $ budget_arg)

let par_cmd =
  let domains_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "domains" ] ~docv:"N,N,..."
          ~doc:"Domain counts to sweep. ttcp has two hosts, so its rows \
                cap at 2 shards; scale distributes its client hosts over \
                all of them.")
  in
  let mb_arg =
    Arg.(
      value & opt int 16
      & info [ "mb" ] ~docv:"MB" ~doc:"Megabytes per ttcp transfer.")
  in
  let conns_arg =
    Arg.(
      value & opt int 2_000
      & info [ "conns" ] ~docv:"N"
          ~doc:"Concurrent connections for the scale rows.")
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run domain_counts mb conns =
    let cores = Domain.recommended_domain_count () in
    Format.printf
      "@.=== Domain-parallel engine sweep (%d core%s available) ===@.@."
      cores
      (if cores = 1 then "" else "s");
    (* ttcp rows: sender/receiver split over at most two shards *)
    let ttcp_rows =
      List.map
        (fun nd ->
          let wire = W.Wire.Duplex { shards = min nd 2; domains = nd > 1 } in
          let r, w =
            wall (fun () -> W.Ttcp.run ~mb ~wire Cfg.library_shm_ipf)
          in
          Format.printf
            "ttcp  %d-domain: %8.0f KB/s  wall %6.3f s  (%d MB)@." nd
            r.W.Ttcp.kb_per_sec w mb;
          (nd, r))
        domain_counts
    in
    (* scale rows: clients round-robin over the non-server shards *)
    let scale_rows =
      List.map
        (fun nd ->
          let r, w =
            wall (fun () ->
                W.Scale.run ~conns
                  ~wire:(W.Wire.Duplex { shards = max nd 1; domains = nd > 1 })
                  ())
          in
          Result.iter
            (fun r ->
              Format.printf
                "scale %d-domain: %7d echoed  wall %6.3f s  (%d conns)@." nd
                r.W.Scale.echoed w conns)
            r;
          (nd, r))
        domain_counts
    in
    let failures =
      List.filter_map
        (fun (nd, r) ->
          match r with
          | Ok _ -> None
          | Error e ->
            Some
              ( Format.asprintf "scale par %d-domain: %a" nd W.Scale.pp_error e,
                false ))
        scale_rows
    in
    (* determinism gate: every row must carry the same virtual-time
       transcript as the first *)
    let same_as_first what strip rows =
      match rows with
      | (n0, r0) :: rest ->
        List.map
          (fun (nd, r) ->
            ( Printf.sprintf "%s %d-domain transcript diverges from %d-domain"
                what nd n0,
              strip r = strip r0 ))
          rest
      | [] -> []
    in
    let strip (r : W.Scale.result) =
      {
        r with
        W.Scale.events = 0;
        wall_s = 0.;
        events_per_wall_s = 0.;
        wall_ms_per_sim_s = 0.;
        bytes_per_conn = 0.;
        bytes_per_pcb = 0.;
      }
    in
    gate
      (failures
      @ same_as_first "ttcp" Fun.id ttcp_rows
      @ same_as_first "scale" (Result.map strip) scale_rows)
  in
  Cmd.v
    (Cmd.info "par"
       ~doc:"Sweep the domain-parallel engine over domain counts \
             (default 1,2,4) on the ttcp and scale workloads, verify \
             every row's virtual-time transcript is bit-identical to \
             the single-domain run, and print each row's wall-clock \
             time. Speedup above 1 requires the host to have free cores; \
             the header records the core count.")
    Term.(const run $ domains_arg $ mb_arg $ conns_arg)

let all_cmd =
  let run mb rounds =
    W.Tables.figure1 ();
    W.Tables.table1 ();
    W.Tables.print_rows ~header:"Table 2 — DECstation 5000/200"
      (W.Tables.table2 ~machine:W.Paper.Dec ~mb ~rounds ());
    W.Tables.print_rows ~header:"Table 2 — Gateway 486"
      (W.Tables.table2 ~machine:W.Paper.Gateway ~mb ~rounds ());
    W.Tables.print_rows ~header:"Table 3 — NEWAPI (shared-buffer interface)"
      (W.Tables.table3 ~mb ~rounds ());
    ignore (W.Tables.table4 ~rounds ());
    ignore (W.Ablation.delivery ());
    ignore (W.Ablation.ack_strategy ());
    ignore (W.Ablation.sync_weight ());
    ignore (W.Ablation.migration_cost ());
    List.iter
      (fun config -> ignore (W.Ablation.bufsize_sweep ~mb:(min mb 8) config))
      [ Cfg.mach25_kernel; Cfg.ux_server; Cfg.library_shm_ipf ]
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment: Figure 1, Tables 1-4 (both machines), \
             ablations and sweeps.")
    Term.(const run $ mb_arg $ rounds_arg)

let main =
  Cmd.group
    (Cmd.info "psd_bench" ~version:"1.0"
       ~doc:
         "Reproduction harness for 'Protocol Service Decomposition for \
          High-Performance Networking' (Maeda & Bershad, SOSP 1993).")
    [
      table1_cmd;
      figure1_cmd;
      table2_cmd;
      table3_cmd;
      table4_cmd;
      sweep_cmd;
      ablation_cmd;
      series_cmd;
      trace_cmd;
      copies_cmd;
      offload_cmd;
      predict_cmd;
      scale_cmd;
      par_cmd;
      all_cmd;
    ]

let () = Stdlib.exit (Cmd.eval main)
