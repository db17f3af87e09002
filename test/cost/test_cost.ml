open Psd_cost

let ( => ) name b = Alcotest.(check bool) name true b

let test_frame_time_wire_rate () =
  let p = Platform.decstation in
  (* 1514-byte frame at 10 Mb/s: (1514+8)*8 = 12176 bits = 1217.6 us *)
  Alcotest.(check int) "max frame" (1_217_600 + 9_600)
    (Platform.frame_time p 1514);
  "min frame padded cost positive" => (Platform.frame_time p 60 > 57_000)

let test_platforms_sane () =
  let d = Platform.decstation and g = Platform.gateway486 in
  "gateway device reads are an order slower"
  => (g.Platform.device_read_per_byte > 4 * d.Platform.device_read_per_byte);
  "sync: kernel < library < server"
  => (d.Platform.sync_kernel < d.Platform.sync_light
     && d.Platform.sync_light < d.Platform.sync_heavy);
  "wakeups: library < kernel < server"
  => (d.Platform.wakeup_light < d.Platform.wakeup_kernel
     && d.Platform.wakeup_kernel < d.Platform.wakeup_heavy)

let test_effective_platform_profiles () =
  let base = Platform.decstation in
  let m25 = Config.effective_platform base Config.Mach25 in
  let bnr2 = Config.effective_platform base Config.Psd in
  "4.3BSD udp layer heavier than Net/2"
  => (m25.Platform.udp_fixed > 3 * bnr2.Platform.udp_fixed);
  let ultrix = Config.effective_platform base Config.Ultrix in
  "ultrix protocols slower than mach 2.5"
  => (ultrix.Platform.tcp_fixed > m25.Platform.tcp_fixed);
  let bsd386 = Config.effective_platform base Config.Bsd386 in
  "386bsd interrupt handling inflated"
  => (bsd386.Platform.intr > 2 * bnr2.Platform.intr)

let test_config_rows () =
  Alcotest.(check int) "dec rows" 6 (List.length Config.decstation_rows);
  Alcotest.(check int) "gateway rows" 6 (List.length Config.gateway_rows);
  Alcotest.(check int) "table3 rows" 5 (List.length Config.table3_rows);
  "bug flags" => Config.bsd386_kernel.Config.large_tcp_bug;
  "newapi flag"
  => (Config.library_newapi_shm.Config.api = Config.Newapi);
  (* labels are unique within each table *)
  let labels = List.map (fun c -> c.Config.label) Config.decstation_rows in
  Alcotest.(check int) "unique labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

let test_ctx_roles () =
  let eng = Psd_sim.Engine.create () in
  let cpu = Psd_sim.Cpu.create eng in
  let plat = Platform.decstation in
  let k = Ctx.create ~eng ~cpu ~plat ~role:Ctx.Kernel_stack in
  let s = Ctx.create ~eng ~cpu ~plat ~role:Ctx.Server_stack in
  let l = Ctx.create ~eng ~cpu ~plat ~role:Ctx.Library_stack in
  "kernel sync cheapest" => (k.Ctx.sync_ns < l.Ctx.sync_ns);
  "server sync heaviest" => (s.Ctx.sync_ns > l.Ctx.sync_ns);
  "kernel runs at kernel priority" => (k.Ctx.prio = Psd_sim.Cpu.Kernel);
  "server runs at user priority" => (s.Ctx.prio = Psd_sim.Cpu.User)

let test_ctx_charging_and_breakdown () =
  let eng = Psd_sim.Engine.create () in
  let cpu = Psd_sim.Cpu.create eng in
  let ctx =
    Ctx.create ~eng ~cpu ~plat:Platform.decstation ~role:Ctx.Library_stack
  in
  let b = Breakdown.create () in
  ctx.Ctx.breakdown <- Some b;
  Psd_sim.Engine.spawn eng (fun () ->
      Ctx.charge ctx Phase.Proto_output 1_000;
      Ctx.charge ctx Phase.Proto_output 2_000;
      Ctx.charge ctx Phase.Ip_output 500;
      Ctx.account ctx Phase.Wire 999);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "accumulated" 3_000 (Breakdown.total b Phase.Proto_output);
  Alcotest.(check int) "other phase" 500 (Breakdown.total b Phase.Ip_output);
  Alcotest.(check int) "account does not consume cpu" 999
    (Breakdown.total b Phase.Wire);
  Alcotest.(check int) "cpu time excludes account" 3_500
    (Psd_sim.Cpu.busy_time cpu)

let test_phase_labels_cover_table4 () =
  (* every Table 4 row label is distinct and printable *)
  let labels = List.map Phase.label Phase.all in
  Alcotest.(check int) "distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels))

let () =
  Alcotest.run "psd_cost"
    [
      ( "platform",
        [
          Alcotest.test_case "frame time" `Quick test_frame_time_wire_rate;
          Alcotest.test_case "sanity" `Quick test_platforms_sane;
          Alcotest.test_case "os profiles" `Quick
            test_effective_platform_profiles;
        ] );
      ("config", [ Alcotest.test_case "rows" `Quick test_config_rows ]);
      ( "ctx",
        [
          Alcotest.test_case "roles" `Quick test_ctx_roles;
          Alcotest.test_case "charging+breakdown" `Quick
            test_ctx_charging_and_breakdown;
          Alcotest.test_case "phases" `Quick test_phase_labels_cover_table4;
        ] );
    ]
