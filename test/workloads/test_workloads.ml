module W = Psd_workloads
module Cfg = Psd_cost.Config

let ( => ) name b = Alcotest.(check bool) name true b

(* --- Paper reference data ------------------------------------------------ *)

let test_paper_lookups () =
  Alcotest.(check (option (float 0.01)))
    "dec kernel throughput" (Some 1070.)
    (W.Paper.table2_throughput W.Paper.Dec "Mach 2.5 In-Kernel");
  Alcotest.(check (option (float 0.001)))
    "lib-shm-ipf udp 1B" (Some 1.23)
    (W.Paper.table2_udp_latency W.Paper.Dec "Mach 3.0+UX Library-SHM-IPF" 1);
  Alcotest.(check (option (float 0.001)))
    "gateway server tcp 512B" (Some 7.76)
    (W.Paper.table2_tcp_latency W.Paper.Gateway "Mach 3.0+UX Server" 512);
  Alcotest.(check (option (float 0.01)))
    "table3 newapi shm-ipf" (Some 1099.)
    (W.Paper.table3_throughput "Mach 3.0+UX Library-NEWAPI-SHM-IPF");
  "unknown label" => (W.Paper.table2_throughput W.Paper.Dec "nope" = None)

let test_paper_na_cells () =
  (* 386BSD's large-TCP bug: 1024/1460 cells are NA in the paper *)
  "386bsd tcp 1460 NA"
  => (W.Paper.table2_tcp_latency W.Paper.Gateway "386BSD In-Kernel" 1460
      = None);
  "386bsd tcp 100 present"
  => (W.Paper.table2_tcp_latency W.Paper.Gateway "386BSD In-Kernel" 100
      <> None)

let test_paper_table4_cells () =
  Alcotest.(check (option int)) "kernel copyout zero" (Some 0)
    (W.Paper.table4_cell "Kernel" ~proto:"tcp" ~size:1 "kernel copyout");
  Alcotest.(check (option int)) "server entry 1460" (Some 579)
    (W.Paper.table4_cell "Server" ~proto:"tcp" ~size:1460 "entry/copyin");
  "bad phase" => (W.Paper.table4_cell "Server" ~proto:"tcp" ~size:1 "x" = None)

let test_best_rcv_buf () =
  Alcotest.(check int) "dec kernel" (24 * 1024)
    (W.Paper.best_rcv_buf W.Paper.Dec Cfg.mach25_kernel);
  Alcotest.(check int) "dec shm clamped to 16-bit window" 65535
    (W.Paper.best_rcv_buf W.Paper.Dec Cfg.library_shm);
  Alcotest.(check int) "gateway kernel" (8 * 1024)
    (W.Paper.best_rcv_buf W.Paper.Gateway Cfg.mach25_kernel)

(* --- drivers ------------------------------------------------------------- *)

let test_ttcp_fields () =
  let r = W.Ttcp.run ~mb:1 Cfg.library_shm in
  Alcotest.(check int) "bytes" (1024 * 1024) r.W.Ttcp.bytes;
  "throughput positive" => (r.W.Ttcp.kb_per_sec > 100.);
  "wire utilisation sane"
  => (r.W.Ttcp.wire_utilization > 0.1 && r.W.Ttcp.wire_utilization <= 1.0);
  "segments counted" => (r.W.Ttcp.segs_out > 700)

let test_protolat_na () =
  let r =
    W.Protolat.run ~machine:W.Paper.Gateway ~proto:W.Protolat.Tcp ~size:1460
      Cfg.bnr2ss_server
  in
  "bnr2ss large tcp NA" => r.W.Protolat.na

let test_protolat_monotone_in_size () =
  let at size =
    (W.Protolat.run ~rounds:40 ~proto:W.Protolat.Udp ~size Cfg.mach25_kernel)
      .W.Protolat.rtt_ms
  in
  let s1 = at 1 and s512 = at 512 and s1472 = at 1472 in
  "1 < 512" => (s1 < s512);
  "512 < 1472" => (s512 < s1472)

let test_tables_structs () =
  let rows = W.Tables.table2 ~machine:W.Paper.Dec ~mb:1 ~rounds:20 () in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "five tcp sizes" 5 (List.length r.W.Tables.tcp_ms);
      Alcotest.(check int) "five udp sizes" 5 (List.length r.W.Tables.udp_ms);
      "throughput present" => (r.W.Tables.throughput <> None))
    rows

(* --- loss soak ----------------------------------------------------------- *)

(* [Ttcp.run] verifies every delivered byte against the payload pattern
   and fails the transfer on any shortfall, so surviving the call IS the
   bit-identical-delivery check; the assertions below are about the
   recovery machinery. *)

let chaos_run ?(mb = 2) ?(seed = 23) ?(rate = 0.01) () =
  W.Ttcp.run ~mb ~seed ~fault:(Psd_link.Fault.chaos rate) Cfg.library_shm_ipf

let test_loss_soak_short () =
  let rc = (chaos_run ()).W.Ttcp.recovery in
  "faults were injected" => (rc.W.Ttcp.injected > 0);
  "loss forced retransmission" => (rc.W.Ttcp.rexmt > 0);
  "duplicate acks observed" => (rc.W.Ttcp.dup_acks_in > 0)

let test_loss_soak_deterministic () =
  let a = chaos_run () and b = chaos_run () in
  "same seed, same fault schedule and counters"
  => (a.W.Ttcp.recovery = b.W.Ttcp.recovery);
  Alcotest.(check int) "same virtual duration" a.W.Ttcp.elapsed_ns
    b.W.Ttcp.elapsed_ns;
  let c = chaos_run ~seed:24 () in
  "different seed, different schedule"
  => (a.W.Ttcp.recovery <> c.W.Ttcp.recovery)

let test_loss_soak_16mb () =
  let r = chaos_run ~mb:16 () in
  Alcotest.(check int) "full volume" (16 * 1024 * 1024) r.W.Ttcp.bytes;
  let rc = r.W.Ttcp.recovery in
  "rexmt fired" => (rc.W.Ttcp.rexmt > 0);
  "fast rexmt fired" => (rc.W.Ttcp.fast_rexmt > 0);
  "checksums caught corruption" => (rc.W.Ttcp.drop_checksum > 0)

let test_clean_wire_reports_no_faults () =
  let r = W.Ttcp.run ~mb:1 ~fault:Psd_link.Fault.none Cfg.library_shm in
  let baseline = W.Ttcp.run ~mb:1 Cfg.library_shm in
  Alcotest.(check int) "no injections" 0 r.W.Ttcp.recovery.W.Ttcp.injected;
  (* a null policy must not even perturb the run *)
  Alcotest.(check int) "same duration as no policy at all"
    baseline.W.Ttcp.elapsed_ns r.W.Ttcp.elapsed_ns

(* --- copy accounting --------------------------------------------------- *)

let site_copies r name =
  match
    List.find_opt (fun (n, _, _) -> n = name) r.W.Copymeter.sites
  with
  | Some (_, copies, _) -> copies
  | None -> Alcotest.failf "unknown copy site %s" name

let test_shm_ipf_single_body_copy () =
  (* The paper's central memory claim: with SHM-IPF delivery the receive
     datapath touches packet bytes exactly once (device memory → shared
     ring); no separate device copy, no IPC message, no flatten, no RPC
     marshalling. The ring copy count may exceed the datagram count only
     by the handful of ARP frames the blast needs. *)
  let count = 100 in
  let r = W.Copymeter.run ~count Cfg.library_shm_ipf in
  Alcotest.(check int) "no device-to-kernel copy" 0
    (site_copies r "rx_device");
  Alcotest.(check int) "no per-packet IPC message" 0
    (site_copies r "rx_ipc");
  Alcotest.(check int) "no reassembly flatten" 0 (site_copies r "rx_flatten");
  Alcotest.(check int) "no RPC marshalling" 0 (site_copies r "rx_rpc");
  let ring = site_copies r "rx_ring" in
  "exactly one body copy per packet (± ARP frames)"
  => (ring >= r.W.Copymeter.packets && ring <= r.W.Copymeter.packets + 8);
  Alcotest.(check int) "datapath total is the ring copy"
    ring r.W.Copymeter.rx_body_copies

let test_copies_ordering_across_placements () =
  let per config =
    let r = W.Copymeter.run ~count:100 config in
    float_of_int r.W.Copymeter.rx_body_copies
    /. float_of_int r.W.Copymeter.packets
  in
  let kernel = per Cfg.mach25_kernel in
  let server = per Cfg.ux_server in
  let ipc = per Cfg.library_ipc in
  let shm = per Cfg.library_shm in
  let ipf = per Cfg.library_shm_ipf in
  "server placement copies the most" => (server > ipc);
  "ipc beats server, loses to shm" => (ipc > shm);
  "shm still pays the device copy" => (shm > ipf);
  "shm-ipf matches the in-kernel copy count" => (ipf <= kernel +. 0.01)

let test_tx_copies_per_placement () =
  (* Transmit-side copy discipline: the frame gather is the single body
     copy every placement pays; the in-kernel placements add the real
     user->kernel copyin, the server placement adds the three RPC
     message passes plus its own socket copyin, and no placement copies
     to retain the send queue (first transmission and retransmission
     both emit shared views). tx counts are exact — ARP traffic never
     carries payload through these sites. *)
  let sent = 100 in
  let tx_per config =
    let r = W.Copymeter.run ~count:sent config in
    Alcotest.(check int) "no retain copy" 0 (site_copies r "tx_retain");
    Alcotest.(check int) "tx gather once per datagram" sent
      (site_copies r "tx_frame");
    r.W.Copymeter.tx_body_copies / r.W.Copymeter.sent
  in
  Alcotest.(check int) "kernel: copyin + gather" 2 (tx_per Cfg.mach25_kernel);
  Alcotest.(check int) "server: 3 rpc + copyin + gather" 5
    (tx_per Cfg.ux_server);
  Alcotest.(check int) "library-ipc: gather only" 1 (tx_per Cfg.library_ipc);
  Alcotest.(check int) "library-shm: gather only" 1 (tx_per Cfg.library_shm);
  Alcotest.(check int) "shm-ipf: gather only" 1 (tx_per Cfg.library_shm_ipf)

let test_newapi_zero_copy_receive () =
  (* The tentpole number (paper Table 4, NEWAPI column): shared-buffer
     delivery plus loans leaves the receive datapath with ZERO body
     copies — the application reads each packet exactly where the
     device-integrated filter deposited it. The loan deposit itself is
     counted at the rx_loan site, which is bookkeeping, not a copy. *)
  let count = 100 in
  let r = W.Copymeter.run ~count Cfg.library_newapi_shm_ipf in
  Alcotest.(check int) "zero rx body copies" 0 r.W.Copymeter.rx_body_copies;
  Alcotest.(check int) "no copy-out" 0 (site_copies r "rx_copyout");
  Alcotest.(check int) "no ring copy" 0 (site_copies r "rx_ring");
  Alcotest.(check int) "no device copy" 0 (site_copies r "rx_device");
  Alcotest.(check int) "no reassembly flatten" 0 (site_copies r "rx_flatten");
  Alcotest.(check int) "every packet loaned" r.W.Copymeter.packets
    (site_copies r "rx_loan");
  (* transmit side: the frame gather remains the single body copy; the
     classic user->stack copyin is replaced by an ownership transfer *)
  Alcotest.(check int) "tx: gather is the only body copy"
    r.W.Copymeter.sent r.W.Copymeter.tx_body_copies;
  Alcotest.(check int) "no copy-in" 0 (site_copies r "tx_copyin");
  Alcotest.(check int) "every send an ownership transfer"
    r.W.Copymeter.sent (site_copies r "tx_owned")

let test_newapi_copy_ladder () =
  (* receive body copies step down the delivery ladder exactly as the
     paper's NEWAPI rows argue: per-packet IPC still pays the device
     copy and one message copy, the shared ring drops the message, the
     integrated filter drops the device copy too *)
  let rx config =
    let r = W.Copymeter.run ~count:100 config in
    Alcotest.(check int)
      ("all datagrams delivered under " ^ config.Cfg.label)
      100 r.W.Copymeter.packets;
    r.W.Copymeter.rx_body_copies / r.W.Copymeter.packets
  in
  Alcotest.(check int) "NEWAPI-IPC: device + message" 2
    (rx Cfg.library_newapi_ipc);
  Alcotest.(check int) "NEWAPI-SHM: device only" 1 (rx Cfg.library_newapi_shm);
  Alcotest.(check int) "NEWAPI-SHM-IPF: zero" 0
    (rx Cfg.library_newapi_shm_ipf)

let test_shm_ipf_allocation_guard () =
  (* Steady-state receive must not allocate per payload byte: the whole
     1MB simulation (engine, fibers, views, socket strings) stays under
     a fixed minor-heap budget per data segment. Measured ~3.6k words;
     the bound leaves ~65% headroom so only a real regression (e.g. a
     reintroduced per-segment flatten) trips it. *)
  let w0 = Gc.minor_words () in
  let r = W.Ttcp.run ~mb:1 Cfg.library_shm_ipf in
  let w1 = Gc.minor_words () in
  let per_seg = (w1 -. w0) /. float_of_int r.W.Ttcp.segs_out in
  if per_seg >= 6000. then
    Alcotest.failf "allocation regression: %.0f minor words/segment" per_seg

let test_send_path_allocation_guard () =
  (* Send-side counterpart: with the transmit path zero-copy, a data
     segment's sender-side work (sndq view, header prepends, checksum,
     frame gather) allocates records and one frame — never payload-sized
     scratch. Measured ~3.1k words/segment whole-simulation; the bound
     is set so reintroducing a per-segment payload copy on the send
     path (copyin ~260 words + retain ~270 words per MSS) plus noise
     trips it, while leaving headroom over the measurement. *)
  let w0 = Gc.minor_words () in
  let r = W.Ttcp.run ~mb:1 Cfg.library_shm in
  let w1 = Gc.minor_words () in
  let per_seg = (w1 -. w0) /. float_of_int r.W.Ttcp.segs_out in
  if per_seg >= 5000. then
    Alcotest.failf "send-path allocation regression: %.0f minor words/segment"
      per_seg

let test_newapi_loan_allocation_guard () =
  (* Loan-path discipline over a whole transfer: the NEWAPI drain hands
     out views and never cooks strings, so the run must show no flatten
     and no copy-out at all, and the minor-heap budget per data segment
     sits below the classic receive guard (the per-chunk copy-out
     strings are gone). *)
  Psd_util.Copies.reset ();
  let w0 = Gc.minor_words () in
  let r = W.Ttcp.run ~mb:1 Cfg.library_newapi_shm_ipf in
  let w1 = Gc.minor_words () in
  let site name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Psd_util.Copies.all ())
    with
    | Some (_, c, _) -> c
    | None -> 0
  in
  Alcotest.(check int) "loan drain never flattens" 0 (site "rx_flatten");
  Alcotest.(check int) "loan drain never copies out" 0 (site "rx_copyout");
  "chunks were loaned" => (site "rx_loan" > 0);
  let per_seg = (w1 -. w0) /. float_of_int r.W.Ttcp.segs_out in
  if per_seg >= 5500. then
    Alcotest.failf "loan-path allocation regression: %.0f minor words/segment"
      per_seg

(* --- header prediction ------------------------------------------------- *)

let hit_rate (rc : W.Ttcp.recovery) =
  let hit = rc.W.Ttcp.predict_hit and miss = rc.W.Ttcp.predict_miss in
  if hit + miss = 0 then 0.
  else float_of_int hit /. float_of_int (hit + miss)

let test_predict_hit_rate () =
  (* Steady-state bulk transfer is header prediction's home turf:
     nearly every synchronized-state segment (in-order data toward the
     receiver, pure acks toward the sender) must match the predicate.
     The acceptance bar is 80%; the observed rate is ~99%. *)
  List.iter
    (fun config ->
      let r = W.Ttcp.run ~mb:2 config in
      let rc = r.W.Ttcp.recovery in
      "prediction exercised" => (rc.W.Ttcp.predict_hit > 0);
      let rate = hit_rate rc in
      if rate < 0.8 then
        Alcotest.failf "hit rate %.1f%% < 80%% on %s" (100. *. rate)
          config.Psd_cost.Config.label)
    [ Cfg.mach25_kernel; Cfg.library_shm_ipf ]

(* [verify_loan] compares words and walks bytes only after a mismatch:
   over views split into two ranges at odd buffer offsets, a clean view
   passes and one corrupt byte is named exactly, wherever it sits
   relative to the 8-byte words. *)
let prop_verify_loan_names_corrupt_byte =
  QCheck.Test.make ~name:"ttcp: verify_loan names the first corrupt byte"
    ~count:500
    QCheck.(
      quad (int_bound 1000) (int_range 2 3000) (int_bound 2999)
        (option (int_bound 2999)))
    (fun (stream_off, len, cut, corrupt) ->
      let cut = 1 + (cut mod (len - 1)) in
      let lead = 3 in
      let b =
        Bytes.init (lead + len) (fun i ->
            Char.chr ((stream_off + i - lead) land 0xff))
      in
      let corrupt = Option.map (fun p -> p mod len) corrupt in
      Option.iter
        (fun p ->
          let c = Char.code (Bytes.get b (lead + p)) in
          Bytes.set b (lead + p) (Char.chr ((c + 1) land 0xff)))
        corrupt;
      let view = Psd_mbuf.Mbuf.of_bytes_view b ~off:lead ~len:cut in
      Psd_mbuf.Mbuf.concat view
        (Psd_mbuf.Mbuf.of_bytes_view b ~off:(lead + cut) ~len:(len - cut));
      match (W.Ttcp.verify_loan ~label:"t" view ~stream_off, corrupt) with
      | (), None -> true
      | (), Some _ -> false
      | exception Failure msg -> (
        match corrupt with
        | None -> false
        | Some p ->
          String.equal msg
            (Printf.sprintf "ttcp[t]: payload corrupt at byte %d (got %#x)"
               (stream_off + p)
               (Char.code (Bytes.get b (lead + p))))))

(* Replay property over randomized wire-fault regimes (loss,
   duplication, reordering, corruption — the out-of-order, dup-ack and
   retransmission branches the prediction predicate must refuse): two
   runs of one seed agree on virtual time, emitted segments, throughput
   and the whole recovery record, hit/miss counters included.
   [Ttcp.run] also pattern-verifies every delivered byte, so payload
   integrity is checked inside the property. The clean-wire figures are
   pinned by the [psd_bench all] and [psd_bench predict] golden
   transcripts. *)
let prop_predict_replay =
  QCheck.Test.make ~name:"ttcp: same-seed replay under chaos" ~count:8
    QCheck.(
      triple (int_bound 1000) (int_range 0 3)
        (QCheck.make
           Gen.(oneofl [ `Chaos 0.005; `Chaos 0.02; `Drop 0.03; `None ])))
    (fun (seed, cfg_i, kind) ->
      let config =
        List.nth
          [
            Cfg.mach25_kernel; Cfg.library_ipc; Cfg.library_shm;
            Cfg.library_shm_ipf;
          ]
          cfg_i
      in
      let fault =
        match kind with
        | `Chaos r -> Psd_link.Fault.chaos r
        | `Drop r -> Psd_link.Fault.drop_only r
        | `None -> Psd_link.Fault.none
      in
      let a = W.Ttcp.run ~mb:1 ~seed ~fault config in
      let b = W.Ttcp.run ~mb:1 ~seed ~fault config in
      a.W.Ttcp.elapsed_ns = b.W.Ttcp.elapsed_ns
      && a.W.Ttcp.segs_out = b.W.Ttcp.segs_out
      && a.W.Ttcp.kb_per_sec = b.W.Ttcp.kb_per_sec
      && a.W.Ttcp.recovery = b.W.Ttcp.recovery)

(* --- Smart-NIC offload ------------------------------------------------- *)

(* Runs [Ttcp] under the Offload placement capturing both hosts' NIC
   pipeline counters. [Ttcp.run] pattern-verifies every delivered byte
   and fails on any shortfall, so a returned result IS the proof that
   the application saw the exact byte stream. *)
let offload_run ?(mb = 1) ?seed ?fault config =
  let pipes = ref [] in
  let probe ~sender ~receiver =
    let grab sys =
      match Psd_core.System.nic_pipe sys with
      | Some p -> p
      | None -> Alcotest.fail "offload system without a NIC pipeline"
    in
    pipes := [ grab sender; grab receiver ]
  in
  let r = W.Ttcp.run ~mb ?seed ?fault ~probe config in
  match !pipes with
  | [ s; d ] -> (r, s, d)
  | _ -> Alcotest.fail "probe did not run"

let test_offload_smoke () =
  let r, snd_pipe, rcv_pipe = offload_run Cfg.offload in
  Alcotest.(check int) "bytes" (1024 * 1024) r.W.Ttcp.bytes;
  "throughput positive" => (r.W.Ttcp.kb_per_sec > 100.);
  "clean wire, no retransmissions" => (r.W.Ttcp.rexmt = 0);
  (* the host never takes a per-packet interrupt; all datapath work sits
     in the pipeline, whose counters must account for both directions *)
  "sender pipeline carried segments" => (Psd_mach.Nicpipe.segs snd_pipe > 0);
  "doorbells rung" => (Psd_mach.Nicpipe.doorbells snd_pipe > 0);
  "completions reaped" => (Psd_mach.Nicpipe.completions rcv_pipe > 0);
  "occupancy within bounds"
  => (let o = Psd_mach.Nicpipe.proto_occupancy_pct snd_pipe in
      o > 0 && o <= 100)

let test_offload_pipeline_speedup () =
  (* the tentpole claim in miniature: per-segment stage pipelining on N
     processing elements beats the same NIC serialised to one PE, in
     virtual time, on the bulk-transfer cell *)
  let piped, _, _ = offload_run Cfg.offload in
  let serial, _, _ = offload_run Cfg.offload_serial in
  "N-PE pipeline strictly faster than 1 PE"
  => (piped.W.Ttcp.elapsed_ns < serial.W.Ttcp.elapsed_ns);
  (* and deterministically so: replaying either run reproduces the
     whole result record *)
  let piped', _, _ = offload_run Cfg.offload in
  "offload replay bit-identical" => (piped = piped')

let test_offload_zero_copy () =
  (* the descriptor-ring contract: the NIC DMAs straight into loaned
     application memory, so the host receive datapath performs zero
     body copies, and transmit pays only the NIC-side frame gather *)
  let count = 100 in
  let r = W.Copymeter.run ~count Cfg.offload in
  Alcotest.(check int) "zero host rx body copies" 0
    r.W.Copymeter.rx_body_copies;
  Alcotest.(check int) "no copy-out" 0 (site_copies r "rx_copyout");
  Alcotest.(check int) "no ring copy" 0 (site_copies r "rx_ring");
  Alcotest.(check int) "no device copy" 0 (site_copies r "rx_device");
  Alcotest.(check int) "no per-packet IPC" 0 (site_copies r "rx_ipc");
  Alcotest.(check int) "no reassembly flatten" 0 (site_copies r "rx_flatten");
  Alcotest.(check int) "every packet loaned" r.W.Copymeter.packets
    (site_copies r "rx_loan");
  Alcotest.(check int) "tx: NIC gather is the only body copy"
    r.W.Copymeter.sent r.W.Copymeter.tx_body_copies;
  Alcotest.(check int) "no copy-in" 0 (site_copies r "tx_copyin");
  Alcotest.(check int) "every send an ownership transfer"
    r.W.Copymeter.sent (site_copies r "tx_owned")

let test_offload_no_pcb_leak () =
  (* full teardown on the NIC stacks: one echo connection, both sides
     close, and after 2MSL the offloaded PCB population returns to
     zero — session state lives (and dies) on the NIC like it would in
     the kernel; EOF is delivered exactly once per side *)
  let open Psd_core in
  let eng = Psd_sim.Engine.create () in
  let segment = Psd_link.Segment.create eng () in
  let sys_a =
    System.create ~eng ~segment ~config:Cfg.offload ~addr:"10.0.0.1"
      ~name:"a" ()
  in
  let sys_b =
    System.create ~eng ~segment ~config:Cfg.offload ~addr:"10.0.0.2"
      ~name:"b" ()
  in
  let pcbs = ref 0 and peak = ref 0 in
  let hook sys =
    match System.kernel_stack sys with
    | Some st ->
      Psd_tcp.Tcp.set_conn_gauge (Netstack.tcp st) (fun d ->
          pcbs := !pcbs + d;
          if !pcbs > !peak then peak := !pcbs)
    | None -> Alcotest.fail "offload system without a NIC stack"
  in
  hook sys_a;
  hook sys_b;
  let eofs = ref 0 in
  let srv = System.app sys_b ~name:"srv" in
  Psd_sim.Engine.spawn eng (fun () ->
      let l = Sockets.stream srv in
      ignore (Result.get_ok (Sockets.bind l ~port:7 ()));
      Result.get_ok (Sockets.listen l ());
      let c = Result.get_ok (Sockets.accept l) in
      let rec loop () =
        match Sockets.recv c ~max:65536 with
        | Ok "" -> incr eofs
        | Ok d ->
          ignore (Sockets.send c d);
          loop ()
        | Error e -> Alcotest.failf "offload echo server: %s" e
      in
      loop ();
      Sockets.close c;
      Sockets.close l);
  let cli = System.app sys_a ~name:"cli" in
  Psd_sim.Engine.spawn eng (fun () ->
      let s = Sockets.stream cli in
      Result.get_ok (Sockets.connect s (System.addr sys_b) 7);
      ignore (Result.get_ok (Sockets.send s (String.make 3000 'x')));
      let rec read n =
        if n < 3000 then
          match Sockets.recv s ~max:4096 with
          | Ok "" -> Alcotest.fail "early EOF on the echo client"
          | Ok d -> read (n + String.length d)
          | Error e -> Alcotest.failf "offload echo client: %s" e
      in
      read 0;
      (* half-close: our FIN lets the server's echo loop hit EOF and
         close, whose FIN we must then see exactly once *)
      Result.get_ok (Sockets.shutdown s);
      (match Sockets.recv s ~max:1 with
      | Ok "" -> incr eofs
      | Ok _ -> Alcotest.fail "data after the echo completed"
      | Error e -> Alcotest.failf "offload echo client EOF: %s" e);
      Sockets.close s);
  Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 300);
  "both NIC connection tables were populated" => (!peak >= 2);
  Alcotest.(check int) "both sides saw exactly one EOF" 2 !eofs;
  Alcotest.(check int) "no PCBs left after teardown + 2MSL" 0 !pcbs

(* Differential: under arbitrary wire-fault regimes the Offload
   placement delivers exactly the application byte stream the reference
   host placement (Library-NEWAPI-SHM-IPF) delivers. Both runs verify
   every byte against the shared stream pattern and fail on shortfall
   or corruption, so two returned results mean two bit-identical app
   streams; the property additionally pins the volumes. *)
let prop_offload_differential =
  QCheck.Test.make
    ~name:"offload == library byte streams under chaos" ~count:6
    QCheck.(
      pair (int_bound 1000)
        (QCheck.make
           Gen.(oneofl [ `Chaos 0.005; `Chaos 0.02; `Drop 0.03; `None ])))
    (fun (seed, kind) ->
      let fault =
        match kind with
        | `Chaos r -> Psd_link.Fault.chaos r
        | `Drop r -> Psd_link.Fault.drop_only r
        | `None -> Psd_link.Fault.none
      in
      let off, _, _ = offload_run ~seed ~fault Cfg.offload in
      let lib = W.Ttcp.run ~mb:1 ~seed ~fault Cfg.library_newapi_shm_ipf in
      off.W.Ttcp.bytes = 1024 * 1024 && lib.W.Ttcp.bytes = off.W.Ttcp.bytes)

(* Pipeline-depth transcript equality: one processing element and N
   must hand the application identical byte streams under faults (both
   runs pattern-verify), differing only in virtual time — and the
   replay of each depth is deterministic. *)
let prop_offload_depth_transcript =
  QCheck.Test.make ~name:"offload: depth 1 == depth N app transcript"
    ~count:6
    QCheck.(
      pair (int_bound 1000)
        (QCheck.make Gen.(oneofl [ `Chaos 0.01; `Drop 0.02; `None ])))
    (fun (seed, kind) ->
      let fault =
        match kind with
        | `Chaos r -> Psd_link.Fault.chaos r
        | `Drop r -> Psd_link.Fault.drop_only r
        | `None -> Psd_link.Fault.none
      in
      let piped, _, _ = offload_run ~seed ~fault Cfg.offload in
      let serial, _, _ = offload_run ~seed ~fault Cfg.offload_serial in
      let piped', _, _ = offload_run ~seed ~fault Cfg.offload in
      piped.W.Ttcp.bytes = serial.W.Ttcp.bytes
      && piped = piped'
      && (kind <> `None
         || piped.W.Ttcp.elapsed_ns < serial.W.Ttcp.elapsed_ns))

(* --- control-plane scale -------------------------------------------- *)

let scale_ok what = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %a" what W.Scale.pp_error e

let test_scale_smoke () =
  let r = scale_ok "smoke" (W.Scale.run ~conns:2000 ()) in
  Alcotest.(check int) "all echoed" 2000 r.W.Scale.echoed;
  Alcotest.(check int) "no failures" 0 r.W.Scale.failed;
  Alcotest.(check int) "no PCB leak after drain" 0 r.W.Scale.final_pcbs;
  Alcotest.(check int) "clean wire, no retransmissions" 0 r.W.Scale.rexmt_segs;
  (* C1M budget: 2.2 KB per connection (two PCBs plus sockets, buffers
     and fibers) — the bound the million-connection sweep is run at *)
  if r.W.Scale.bytes_per_conn >= 2_252. then
    Alcotest.failf "%.0f bytes/conn over the 2.2 KB budget"
      r.W.Scale.bytes_per_conn;
  if r.W.Scale.bytes_per_pcb >= 1_126. then
    Alcotest.failf "%.0f bytes/pcb over the 1.1 KB budget"
      r.W.Scale.bytes_per_pcb;
  (* PCB pool leak check: every free-list slot is a put not yet
     reused, and after the drain no pooled record is still live in a
     connection table (final_pcbs above covers the tables; this covers
     the free-list bookkeeping). *)
  Alcotest.(check int) "pool accounting closes"
    (r.W.Scale.pool_puts - r.W.Scale.pool_hits)
    r.W.Scale.pool_free;
  "pool exercised" => (r.W.Scale.pool_puts > 0)

(* [dune runtest] runs in _build/default/test/workloads, beside the files
   it copied there as dependencies; [dune exec] runs at the project
   root *)
let pinned_fingerprint name =
  let path =
    List.find Sys.file_exists
      [ "../../perfbench/fingerprints/" ^ name;
        "perfbench/fingerprints/" ^ name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* The benchmark's farm op is exactly this run, so its fingerprint line
   (printed in the same form as perfbench's farm rotation) must match the
   committed file byte for byte: an event-count drift fails here, not
   only in the benchmark. *)
let test_scale_farm_fingerprint () =
  let r = scale_ok "farm" (W.Scale.run ~conns:600 ~per_host:2 ~seed:1 ()) in
  let open W.Scale in
  let line =
    Printf.sprintf
      "farm conns=%d hosts=%d segments=%d connected=%d echoed=%d failed=%d \
       peak_pcbs=%d events=%d virtual_ns=%d rexmt_segs=%d injected=%d \
       final_pcbs=%d pool=%d/%d/%d/%d"
      r.conns r.hosts r.segments r.connected r.echoed r.failed r.peak_pcbs
      r.events r.virtual_ns r.rexmt_segs r.injected r.final_pcbs r.pool_fresh
      r.pool_hits r.pool_puts r.pool_free
  in
  Alcotest.(check string) "farm-seed1.txt"
    (pinned_fingerprint "farm-seed1.txt")
    (line ^ "\n")

(* The benchmark's churn and rpc ops, rebuilt through the public System
   and Sockets APIs: per placement a client and a server host on one
   segment, TCP and UDP echo services on port 7, and a warm-up of held
   connections. churn then runs 200 connect / echo 1 KB / close cycles,
   rpc 250 1-byte echoes over TCP and then over UDP. The sum and hash of
   the ops' virtual times move with any charge on the path, the
   demultiplexing instructions the session filter set runs included, so
   a filter-order change fails here as well as in the benchmark. *)
module Bench = struct
  module Sockets = Psd_core.Sockets
  module System = Psd_core.System
  module Engine = Psd_sim.Engine

  let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

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

  let start_echo eng sapp =
    Engine.spawn eng ~name:"echo-accept" (fun () ->
        let l = Sockets.stream sapp in
        ignore (ok "echo bind" (Sockets.bind l ~port:7 ()));
        ok "echo listen" (Sockets.listen l ~backlog:64 ());
        let rec loop () =
          match Sockets.accept l with
          | Ok c ->
            Sockets.set_nodelay c true;
            serve_stream eng c;
            loop ()
          | Error _ -> ()
        in
        loop ());
    Engine.spawn eng ~name:"echo-udp" (fun () ->
        let s = Sockets.dgram sapp in
        ignore (ok "udp echo bind" (Sockets.bind s ~port:7 ()));
        let rec loop () =
          match Sockets.recvfrom s ~max:65536 with
          | Ok (d, Some src) ->
            ignore (Sockets.send s ~dst:src d);
            loop ()
          | Ok (_, None) | Error _ -> ()
        in
        loop ())

  type pair = { eng : Engine.t; srv : System.t; capp : Sockets.app }

  let create ~seed config =
    let eng = Engine.create ~seed () in
    let segment = Psd_link.Segment.create eng () in
    let host addr name = System.create ~eng ~segment ~config ~addr ~name () in
    let cli = host "10.0.0.1" "client" in
    let srv = host "10.0.0.2" "server" in
    let sapp = System.app srv ~name:"echo" in
    let capp = System.app cli ~name:"client" in
    start_echo eng sapp;
    { eng; srv; capp }

  (* run [f] as a client fiber to completion, in fixed virtual slices *)
  let client p f =
    let finished = ref false in
    Engine.spawn p.eng ~name:"bench-client" (fun () ->
        f ();
        finished := true);
    while not !finished do
      Engine.run_for p.eng (Psd_sim.Time.ms 50)
    done

  let connect p =
    let s = Sockets.stream p.capp in
    ok "connect" (Sockets.connect s (System.addr p.srv) 7);
    Sockets.set_nodelay s true;
    s

  let echo s msg =
    ignore (ok "send" (Sockets.send s msg));
    let n = String.length msg in
    let buf = Buffer.create n in
    while Buffer.length buf < n do
      Buffer.add_string buf
        (ok "recv" (Sockets.recv s ~max:(n - Buffer.length buf)))
    done;
    Alcotest.(check string) "echo" msg (Buffer.contents buf)

  let hash_add h v = ((h * 31) + v) land 0x3fffffff

  (* the benchmark set-up's warm-up: open [hold] connections, echo
     [msg] over each, then close them *)
  let warm p ~hold msg =
    let held = ref [] in
    client p (fun () ->
        for _ = 1 to hold do
          let s = connect p in
          held := s :: !held;
          echo s msg
        done);
    client p (fun () -> List.iter Sockets.close !held)

  let create_settled ~seed configs =
    let pairs = List.map (create ~seed) configs in
    List.iter (fun p -> Engine.run_for p.eng (Psd_sim.Time.ms 1)) pairs;
    pairs

  let churn_lines ~seed ~m configs =
    let rng = Random.State.make [| seed |] in
    let pairs = create_settled ~seed configs in
    List.iter (fun p -> warm p ~hold:4 (String.make 1024 'w')) pairs;
    List.map2
      (fun p config ->
        let h = ref 0 and vsum = ref 0 in
        client p (fun () ->
            for _ = 1 to m do
              let msg =
                String.init 1024 (fun _ -> Char.chr (Random.State.int rng 256))
              in
              let v0 = Engine.now p.eng in
              let s = connect p in
              echo s msg;
              Sockets.close s;
              let dv = Engine.now p.eng - v0 in
              h := hash_add !h dv;
              vsum := !vsum + dv
            done);
        Printf.sprintf "churn %-34s m=%d conn_sum_ns=%d hash=%x\n"
          config.Cfg.label m !vsum !h)
      pairs configs

  (* The benchmark's rpc op: per placement, after a warm-up of one
     connection echoing "w", [k] 1-byte echoes over one TCP connection,
     then [k] over a connected UDP socket. *)
  let rpc_lines ~seed ~k configs =
    let rng = Random.State.make [| seed |] in
    let msg () = String.make 1 (Char.chr (Random.State.int rng 256)) in
    let pairs = create_settled ~seed configs in
    List.iter (fun p -> warm p ~hold:1 "w") pairs;
    let cell p proto config f =
      let h = ref 0 and vsum = ref 0 in
      client p (fun () ->
          f (fun round_trip ->
              let v0 = Engine.now p.eng in
              round_trip ();
              let dv = Engine.now p.eng - v0 in
              h := hash_add !h dv;
              vsum := !vsum + dv));
      Printf.sprintf "rpc %s %-34s k=%d rtt_sum_ns=%d hash=%x\n" proto
        config.Cfg.label k !vsum !h
    in
    List.concat
      (List.map2
         (fun p config ->
           let tcp =
             cell p "tcp" config (fun timed ->
                 let s = connect p in
                 for _ = 1 to k do
                   let m = msg () in
                   timed (fun () -> echo s m)
                 done;
                 Sockets.close s)
           in
           let udp =
             cell p "udp" config (fun timed ->
                 let s = Sockets.dgram p.capp in
                 ignore (ok "udp bind" (Sockets.bind s ()));
                 ok "udp connect" (Sockets.connect s (System.addr p.srv) 7);
                 for _ = 1 to k do
                   let m = msg () in
                   timed (fun () ->
                       ignore (ok "udp send" (Sockets.send s m));
                       Alcotest.(check string)
                         "udp echo" m
                         (ok "udp recv" (Sockets.recv s ~max:64)))
                 done)
           in
           [ tcp; udp ])
         pairs configs)
end

let test_churn_fingerprint () =
  let lines =
    Bench.churn_lines ~seed:1 ~m:200 [ Cfg.library_shm_ipf; Cfg.mach25_kernel ]
  in
  Alcotest.(check string) "churn-seed1.txt"
    (pinned_fingerprint "churn-seed1.txt")
    (String.concat "" lines)

(* The rotation of the rpc and bulk workloads: the six DECstation rows of
   Table 2, then Library-NEWAPI-SHM-IPF and Smart-NIC Offload. *)
let bench_rotation =
  Cfg.decstation_rows @ [ Cfg.library_newapi_shm_ipf; Cfg.offload ]

let test_rpc_fingerprint () =
  Alcotest.(check string) "rpc-seed1.txt"
    (pinned_fingerprint "rpc-seed1.txt")
    (String.concat "" (Bench.rpc_lines ~seed:1 ~k:250 bench_rotation))

(* The benchmark's bulk op: one 2 MB ttcp transfer per placement. *)
let test_bulk_fingerprint () =
  let line config =
    let r = W.Ttcp.run ~mb:2 ~seed:1 config in
    Printf.sprintf "bulk %-34s mb=%d elapsed_ns=%d segs_out=%d kb_per_sec=%.6f\n"
      config.Cfg.label 2 r.W.Ttcp.elapsed_ns r.W.Ttcp.segs_out
      r.W.Ttcp.kb_per_sec
  in
  Alcotest.(check string) "bulk-seed1.txt"
    (pinned_fingerprint "bulk-seed1.txt")
    (String.concat "" (List.map line bench_rotation))

let test_scale_plan_errors () =
  let err what = function
    | Ok _ -> Alcotest.failf "%s: expected a plan error" what
    | Error e -> e
  in
  (match err "conns=0" (W.Scale.run ~conns:0 ()) with
  | W.Scale.Bad_conns 0 -> ()
  | e -> Alcotest.failf "conns=0: wrong error %a" W.Scale.pp_error e);
  (match err "per_host=0" (W.Scale.run ~conns:10 ~per_host:0 ()) with
  | W.Scale.Bad_per_host 0 -> ()
  | e -> Alcotest.failf "per_host=0: wrong error %a" W.Scale.pp_error e);
  (* the plan gates every wire before any topology is built *)
  List.iter
    (fun wire ->
      match
        err "too many hosts" (W.Scale.run ~conns:100_000 ~per_host:1 ~wire ())
      with
      | W.Scale.Too_many_hosts { hosts = 100_000; limit = 62_500 } -> ()
      | e ->
        Alcotest.failf "too many hosts: wrong error %a" W.Scale.pp_error e)
    [ W.Wire.Shared; W.Wire.Duplex { shards = 2; domains = true } ];
  (* the largest combination the address plan admits builds fine: the
     plan is the only gate, so probe it via the typed error instead of
     constructing 62,500 systems *)
  match W.Scale.run ~conns:1 ~per_host:1 () with
  | Ok r ->
    Alcotest.(check int) "one host" 1 r.W.Scale.hosts;
    Alcotest.(check int) "one segment" 1 r.W.Scale.segments
  | Error e -> Alcotest.failf "conns=1: unexpected error %a" W.Scale.pp_error e

(* Strip the wall-clock and GC-derived fields; what remains is the
   deterministic transcript of the run. *)
let scale_transcript (r : W.Scale.result) =
  {
    r with
    W.Scale.wall_s = 0.;
    events_per_wall_s = 0.;
    wall_ms_per_sim_s = 0.;
    bytes_per_conn = 0.;
    bytes_per_pcb = 0.;
  }

let test_scale_chaos_soak_deterministic () =
  (* 10k concurrent connections under wire chaos (loss, duplication,
     reordering, corruption on both segments), twice with one seed:
     every event count, fault count, and TCP counter must replay
     exactly. This is the whole-control-plane determinism check for
     the timing-wheel engine. *)
  let soak () =
    scale_ok "chaos soak"
      (W.Scale.run ~conns:10_000 ~seed:23
         ~fault:(Psd_link.Fault.chaos 0.002) ())
  in
  let a = soak () in
  let b = soak () in
  "chaos exercised" => (a.W.Scale.injected > 0);
  "rexmt exercised" => (a.W.Scale.rexmt_segs > 0);
  "most connections still complete"
  => (a.W.Scale.echoed > 9_000);
  if scale_transcript a <> scale_transcript b then
    Alcotest.failf "soak transcripts diverge:@.%a@.%a" W.Scale.pp a
      W.Scale.pp b

(* --- Domain-parallel differentials ------------------------------------ *)

(* The whole ttcp result record is virtual-time-derived, so the shard
   count and driver (sequential rounds vs one domain per shard) must
   not change a single field. *)
let ttcp_par ?fault ?(config = Cfg.library_shm_ipf) ~nshards ~domains () =
  W.Ttcp.run ~mb:4 ~seed:7 ?fault
    ~wire:(W.Wire.Duplex { shards = nshards; domains })
    config

(* NEWAPI adds the loan drain and the owned-buffer pump, both of which
   must see the same instants on either side of a shard boundary. *)
let test_ttcp_par_differential () =
  List.iter
    (fun config ->
      let base = ttcp_par ~config ~nshards:1 ~domains:false () in
      let seq = ttcp_par ~config ~nshards:2 ~domains:false () in
      let dom = ttcp_par ~config ~nshards:2 ~domains:true () in
      "throughput sane" => (base.W.Ttcp.kb_per_sec > 500.);
      "all bytes arrived" => (base.W.Ttcp.bytes = 4 * 1024 * 1024);
      if base <> seq then
        Alcotest.failf "sequential 2-shard diverges from 1-shard:@.%a@.%a"
          W.Ttcp.pp base W.Ttcp.pp seq;
      if base <> dom then
        Alcotest.failf "2-domain diverges from 1-shard:@.%a@.%a" W.Ttcp.pp
          base W.Ttcp.pp dom)
    [ Cfg.library_shm_ipf; Cfg.library_newapi_shm_ipf ]

let test_ttcp_par_chaos_soak () =
  (* fixed-seed chaos on the duplex wire: the two-domain transcript
     must equal the single-shard one and replay exactly *)
  let soak nshards domains =
    ttcp_par ~fault:(Psd_link.Fault.chaos 0.01) ~nshards ~domains ()
  in
  let base = soak 1 false in
  let dom = soak 2 true in
  let dom' = soak 2 true in
  "chaos exercised" => (base.W.Ttcp.recovery.W.Ttcp.injected > 0);
  "recovery exercised"
  => (base.W.Ttcp.rexmt > 0 || base.W.Ttcp.recovery.W.Ttcp.fast_rexmt > 0);
  if base <> dom then
    Alcotest.failf "2-domain chaos diverges from 1-shard:@.%a@.%a" W.Ttcp.pp
      base W.Ttcp.pp dom;
  if dom <> dom' then
    Alcotest.failf "2-domain chaos replay diverges:@.%a@.%a" W.Ttcp.pp dom
      W.Ttcp.pp dom'

(* [events] legitimately differs between drivers (the sleep bypass sees
   different horizons), so compare the scale transcript minus it. *)
let scale_par_transcript r = { (scale_transcript r) with W.Scale.events = 0 }

let scale_par ?fault ~nshards ~domains () =
  scale_ok "scale par"
    (W.Scale.run ~conns:300 ~per_host:100 ~hold_ns:(Psd_sim.Time.sec 2)
       ~seed:11 ?fault
       ~wire:(W.Wire.Duplex { shards = nshards; domains })
       ())

let test_scale_par_differential () =
  let base = scale_par ~nshards:1 ~domains:false () in
  let seq = scale_par ~nshards:2 ~domains:false () in
  let dom = scale_par ~nshards:3 ~domains:true () in
  "all echoed" => (base.W.Scale.echoed = 300);
  "no pcb leak" => (base.W.Scale.final_pcbs = 0);
  if scale_par_transcript base <> scale_par_transcript seq then
    Alcotest.failf "sequential 2-shard scale diverges:@.%a@.%a" W.Scale.pp
      base W.Scale.pp seq;
  if scale_par_transcript base <> scale_par_transcript dom then
    Alcotest.failf "3-domain scale diverges:@.%a@.%a" W.Scale.pp base
      W.Scale.pp dom

let test_scale_par_chaos () =
  let soak nshards domains =
    scale_par ~fault:(Psd_link.Fault.chaos 0.002) ~nshards ~domains ()
  in
  let base = soak 1 false in
  let dom = soak 3 true in
  "chaos exercised" => (base.W.Scale.injected > 0);
  if scale_par_transcript base <> scale_par_transcript dom then
    Alcotest.failf "3-domain chaos scale diverges:@.%a@.%a" W.Scale.pp base
      W.Scale.pp dom

let () =
  Alcotest.run "psd_workloads"
    [
      ( "paper",
        [
          Alcotest.test_case "lookups" `Quick test_paper_lookups;
          Alcotest.test_case "na cells" `Quick test_paper_na_cells;
          Alcotest.test_case "table4 cells" `Quick test_paper_table4_cells;
          Alcotest.test_case "rcv buf" `Quick test_best_rcv_buf;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "ttcp fields" `Quick test_ttcp_fields;
          Alcotest.test_case "protolat NA" `Quick test_protolat_na;
          Alcotest.test_case "latency monotone" `Quick
            test_protolat_monotone_in_size;
          Alcotest.test_case "table structs" `Quick test_tables_structs;
        ] );
      ( "copies",
        [
          Alcotest.test_case "shm-ipf single body copy" `Quick
            test_shm_ipf_single_body_copy;
          Alcotest.test_case "placement ordering" `Quick
            test_copies_ordering_across_placements;
          Alcotest.test_case "tx per placement" `Quick
            test_tx_copies_per_placement;
          Alcotest.test_case "newapi zero-copy receive" `Quick
            test_newapi_zero_copy_receive;
          Alcotest.test_case "newapi copy ladder" `Quick
            test_newapi_copy_ladder;
          Alcotest.test_case "allocation guard" `Quick
            test_shm_ipf_allocation_guard;
          Alcotest.test_case "send-path allocation guard" `Quick
            test_send_path_allocation_guard;
          Alcotest.test_case "newapi loan allocation guard" `Quick
            test_newapi_loan_allocation_guard;
          QCheck_alcotest.to_alcotest prop_verify_loan_names_corrupt_byte;
        ] );
      ( "predict",
        [
          Alcotest.test_case "hit rate >= 80%" `Quick test_predict_hit_rate;
          QCheck_alcotest.to_alcotest prop_predict_replay;
        ] );
      ( "soak",
        [
          Alcotest.test_case "chaos 2MB" `Quick test_loss_soak_short;
          Alcotest.test_case "deterministic replay" `Quick
            test_loss_soak_deterministic;
          Alcotest.test_case "chaos 16MB" `Slow test_loss_soak_16mb;
          Alcotest.test_case "clean wire" `Quick
            test_clean_wire_reports_no_faults;
        ] );
      ( "offload",
        [
          Alcotest.test_case "smoke" `Quick test_offload_smoke;
          Alcotest.test_case "pipeline speedup" `Quick
            test_offload_pipeline_speedup;
          Alcotest.test_case "zero host rx copies" `Quick
            test_offload_zero_copy;
          Alcotest.test_case "teardown leaves no PCBs" `Quick
            test_offload_no_pcb_leak;
          QCheck_alcotest.to_alcotest prop_offload_differential;
          QCheck_alcotest.to_alcotest prop_offload_depth_transcript;
        ] );
      ( "scale",
        [
          Alcotest.test_case "smoke 2k conns" `Quick test_scale_smoke;
          Alcotest.test_case "plan validation" `Quick test_scale_plan_errors;
          Alcotest.test_case "farm fingerprint" `Quick
            test_scale_farm_fingerprint;
          Alcotest.test_case "churn fingerprint" `Quick test_churn_fingerprint;
          Alcotest.test_case "rpc fingerprint" `Quick test_rpc_fingerprint;
          Alcotest.test_case "bulk fingerprint" `Quick test_bulk_fingerprint;
          Alcotest.test_case "chaos soak 10k deterministic" `Quick
            test_scale_chaos_soak_deterministic;
        ] );
      ( "par",
        [
          Alcotest.test_case "ttcp differential" `Quick
            test_ttcp_par_differential;
          Alcotest.test_case "ttcp chaos soak" `Quick test_ttcp_par_chaos_soak;
          Alcotest.test_case "scale differential" `Quick
            test_scale_par_differential;
          Alcotest.test_case "scale chaos" `Quick test_scale_par_chaos;
        ] );
    ]
