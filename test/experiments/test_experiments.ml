(* Shape tests: the paper's qualitative results, asserted as invariants.
   These are the acceptance criteria of the reproduction (DESIGN.md
   section 4) — who wins, by roughly what factor, where the crossovers
   fall. Absolute numbers are checked loosely; orderings strictly. *)

module W = Psd_workloads
module Cfg = Psd_cost.Config

let ( => ) name b = Alcotest.(check bool) name true b

let tp config = (W.Ttcp.run ~mb:2 config).W.Ttcp.kb_per_sec

let rtt ?(proto = W.Protolat.Udp) ?(size = 1) config =
  (W.Protolat.run ~rounds:60 ~proto ~size config).W.Protolat.rtt_ms

(* --- Table 2 shapes ---------------------------------------------------- *)

let test_throughput_ordering () =
  let kernel = tp Cfg.mach25_kernel in
  let server = tp Cfg.ux_server in
  let lib_ipc = tp Cfg.library_ipc in
  let lib_shm = tp Cfg.library_shm in
  let lib_ipf = tp Cfg.library_shm_ipf in
  "server is the slowest" => (server < lib_ipc);
  "IPC < SHM (wakeup batching)" => (lib_ipc < lib_shm);
  "SHM <= SHM-IPF (copy elimination)" => (lib_shm <= lib_ipf);
  "library within 10% of the kernel"
  => (lib_ipf >= 0.90 *. kernel);
  "server substantially below kernel" => (server < 0.75 *. kernel);
  (* absolute sanity: a 10Mb/s wire cannot beat ~1250 KB/s *)
  "under wire capacity" => (kernel < 1250.);
  "kernel near paper value (1070)" => (abs_float (kernel -. 1070.) < 120.)

let test_udp_latency_shapes () =
  let kernel = rtt Cfg.mach25_kernel in
  let server = rtt Cfg.ux_server in
  let lib_ipf = rtt Cfg.library_shm_ipf in
  let lib_ipc = rtt Cfg.library_ipc in
  "library beats the kernel on small UDP rtt" => (lib_ipf < kernel);
  "server more than twice the library's latency"
  => (server > 2. *. lib_ipf);
  "IPC delivery slower than integrated filter" => (lib_ipc > lib_ipf);
  "library near the paper's 1.23 ms" => (abs_float (lib_ipf -. 1.23) < 0.25);
  "server near the paper's 3.64 ms" => (abs_float (server -. 3.64) < 0.8)

let test_tcp_latency_scales_with_size () =
  let at size = rtt ~proto:W.Protolat.Tcp ~size Cfg.library_shm_ipf in
  let small = at 1 and big = at 1460 in
  "latency grows with message size" => (big > 3. *. small);
  "1460B near the paper's 6.56 ms" => (abs_float (big -. 6.56) < 1.0)

let test_gateway_device_bound () =
  let kernel = (W.Ttcp.run ~machine:W.Paper.Gateway ~mb:2 Cfg.mach25_kernel).W.Ttcp.kb_per_sec in
  let lib = (W.Ttcp.run ~machine:W.Paper.Gateway ~mb:2 Cfg.library_shm).W.Ttcp.kb_per_sec in
  "gateway is device-bound (~500 KB/s ceiling)" => (kernel < 550.);
  "library beats in-kernel on the gateway" => (lib > kernel)

let test_na_cells () =
  let r =
    W.Protolat.run ~machine:W.Paper.Gateway ~rounds:10 ~proto:W.Protolat.Tcp
      ~size:1460 Cfg.bsd386_kernel
  in
  "386BSD cannot send large TCP segments" => r.W.Protolat.na;
  let ok =
    W.Protolat.run ~machine:W.Paper.Gateway ~rounds:30 ~proto:W.Protolat.Tcp
      ~size:100 Cfg.bsd386_kernel
  in
  "small segments still work" => not ok.W.Protolat.na

(* --- Table 3 shapes ---------------------------------------------------- *)

let test_newapi_beats_classic () =
  let classic = tp Cfg.library_shm_ipf in
  let newapi = tp Cfg.library_newapi_shm_ipf in
  "copy elimination helps throughput" => (newapi >= classic);
  let classic_lat = rtt ~proto:W.Protolat.Tcp ~size:1460 Cfg.library_shm_ipf in
  let newapi_lat =
    rtt ~proto:W.Protolat.Tcp ~size:1460 Cfg.library_newapi_shm_ipf
  in
  "copy elimination helps large-packet latency" => (newapi_lat < classic_lat);
  let kernel = tp Cfg.mach25_kernel in
  "NEWAPI library reaches kernel throughput" => (newapi >= 0.99 *. kernel)

(* --- Table 4 shapes ---------------------------------------------------- *)

let test_breakdown_shapes () =
  let run config =
    let b = Psd_cost.Breakdown.create () in
    ignore
      (W.Protolat.run ~rounds:60 ~breakdown:b ~proto:W.Protolat.Tcp ~size:1
         config);
    b
  in
  let lib = run Cfg.library_shm_ipf in
  let kernel = run Cfg.mach25_kernel in
  let server = run Cfg.ux_server in
  let cell b p = Psd_cost.Breakdown.total b p / 60 / 1000 in
  (* the kernel implementation has no kernel->user packet copy *)
  Alcotest.(check int) "kernel copyout zero in-kernel" 0
    (cell kernel Psd_cost.Phase.Kernel_copyout);
  "library and server DO pay the copyout"
  => (cell lib Psd_cost.Phase.Kernel_copyout > 0
     && cell server Psd_cost.Phase.Kernel_copyout > 0);
  (* server entry is dominated by the 4-copy RPC *)
  "server entry >> library entry"
  => (cell server Psd_cost.Phase.Entry_copyin
      > 5 * cell lib Psd_cost.Phase.Entry_copyin);
  (* heavyweight synchronisation shows up in the server's protocol rows *)
  "server tcp_output > kernel tcp_output"
  => (cell server Psd_cost.Phase.Proto_output
      > 2 * cell kernel Psd_cost.Phase.Proto_output);
  (* grand totals roughly reproduce the paper's columns *)
  let total b =
    List.fold_left
      (fun acc p -> acc + cell b p)
      0
      (List.filter (fun p -> p <> Psd_cost.Phase.Control) Psd_cost.Phase.all)
  in
  let near x target slack = abs (x - target) < slack in
  "library total ~ paper 934-128us" => (near (total lib) 806 250);
  "kernel total ~ paper 613us" => (near (total kernel) 562 200);
  "server total ~ paper 1864us" => (near (total server) 1813 450)

(* --- ablation directions ------------------------------------------------ *)

let test_sync_weight_causal () =
  match W.Ablation.sync_weight ~rounds:60 () with
  | [ (_, light); (_, heavy) ] ->
    "heavy synchronisation costs latency" => (heavy > light +. 0.5)
  | _ -> Alcotest.fail "unexpected ablation shape"

let test_migration_amortization () =
  match W.Ablation.migration_cost ~conns:8 ~bytes_per_conn:512 () with
  | [ (_, lib); (_, server); (_, kernel) ] ->
    "library short connections still beat the server" => (lib < server);
    "but pay migration overhead relative to in-kernel" => (lib > kernel)
  | _ -> Alcotest.fail "unexpected ablation shape"

let test_bufsize_sweep_monotone_then_flat () =
  let sweep =
    W.Ablation.bufsize_sweep ~mb:2 ~sizes_kb:[ 4; 16; 63 ] Cfg.library_shm_ipf
  in
  match sweep with
  | [ (_, small); (_, mid); (_, big) ] ->
    "larger buffers never hurt" => (mid >= small -. 20. && big >= mid -. 20.);
    "small buffers throttle throughput" => (small < big)
  | _ -> Alcotest.fail "unexpected sweep shape"

let test_simulation_is_deterministic () =
  let run () =
    let r1 = W.Ttcp.run ~mb:1 ~seed:99 Cfg.library_shm in
    let l1 =
      W.Protolat.run ~rounds:40 ~proto:W.Protolat.Tcp ~size:512
        Cfg.ux_server
    in
    (r1.W.Ttcp.elapsed_ns, r1.W.Ttcp.segs_out, l1.W.Protolat.rtt_ms)
  in
  let a = run () and b = run () in
  "bit-identical replay" => (a = b)

let () =
  Alcotest.run "experiments"
    [
      ( "table2",
        [
          Alcotest.test_case "throughput ordering" `Quick
            test_throughput_ordering;
          Alcotest.test_case "udp latency" `Quick test_udp_latency_shapes;
          Alcotest.test_case "tcp latency vs size" `Quick
            test_tcp_latency_scales_with_size;
          Alcotest.test_case "gateway device bound" `Quick
            test_gateway_device_bound;
          Alcotest.test_case "NA cells" `Quick test_na_cells;
        ] );
      ( "table3",
        [ Alcotest.test_case "newapi" `Quick test_newapi_beats_classic ] );
      ( "table4",
        [ Alcotest.test_case "breakdown shapes" `Quick test_breakdown_shapes ]
      );
      ( "determinism",
        [
          Alcotest.test_case "replay" `Quick test_simulation_is_deterministic;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "sync weight" `Quick test_sync_weight_causal;
          Alcotest.test_case "migration" `Quick test_migration_amortization;
          Alcotest.test_case "bufsize sweep" `Quick
            test_bufsize_sweep_monotone_then_flat;
        ] );
    ]
