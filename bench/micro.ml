(* Fast-path microbenchmarks: the three data-plane inner loops this
   reproduction's wall-clock time is spent in (BPF demultiplex, Internet
   checksum, mbuf churn), one session-filter install and removal in a
   200-filter kernel filter set, one broadcast who-has heard by 32
   in-kernel hosts, the engine's execution forms (fiber and
   continuation sleeps, suspend and resume, task ends, spawn), plus the
   table2 macro cell, measured with
   Bechamel and printed to stdout. The byte-at-a-time checksum and the
   BPF interpreter are measured alongside the fast paths, so every run
   prints its own before/after ratios. Recorded speed claims come from
   perfbench, not from this harness.

   `--smoke` (the @bench-smoke dune alias, part of the default test run)
   instead executes each workload a handful of times: it exists so the
   harness cannot silently rot. *)

open Bechamel
module W = Psd_workloads
module Cfg = Psd_cost.Config
module E = Psd_sim.Engine

(* --- workloads -------------------------------------------------------- *)

let buf1500 = Bytes.init 1500 (fun i -> Char.chr (i * 131 land 0xff))

(* the pre-fast-path algorithm, kept as the measured reference *)
let ref_checksum b ~off ~len =
  let acc = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    acc :=
      !acc
      + (Char.code (Bytes.get b !i) lsl 8)
      + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.get b !i) lsl 8);
  let acc = ref !acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let spec =
  {
    Psd_bpf.Filter.proto = Psd_bpf.Filter.Tcp;
    local_ip = 0x0a000002;
    local_port = 80;
    remote_ip = Some 0x0a000001;
    remote_port = Some 1234;
  }

let prog = Psd_bpf.Filter.session spec
let compiled = Psd_bpf.Compile.compile_exn prog
let flat = Psd_bpf.Filter.flat_of_spec spec

let match_frame =
  (* a frame the session filter accepts: the full demultiplexing path *)
  let b = Bytes.make 64 '\x00' in
  Psd_util.Codec.set_u16 b 12 0x0800;
  Psd_util.Codec.set_u8 b 14 0x45;
  Psd_util.Codec.set_u8 b 23 6;
  Psd_util.Codec.set_u32i b 26 0x0a000001;
  Psd_util.Codec.set_u32i b 30 0x0a000002;
  Psd_util.Codec.set_u16 b 34 1234;
  Psd_util.Codec.set_u16 b 36 80;
  b

let payload4k = String.make 4096 'x'

let mbuf_churn () =
  let m = Psd_mbuf.Mbuf.of_string payload4k in
  let front = Psd_mbuf.Mbuf.split m 1000 in
  Psd_mbuf.Mbuf.concat front m;
  Psd_mbuf.Mbuf.length front

(* The steady-state receive inner loop, isolated from the simulator: a
   full-MSS TCP segment is decoded in place (checksum straight over the
   buffer), its payload viewed into a sockbuf chain, and the chain split
   off as the application read — the sequence the zero-copy datapath
   runs once per received segment. The segment bytes are built once;
   per-run work allocates only mbuf view records, never payload bytes. *)
let rx_src = Psd_ip.Addr.of_string "10.0.0.1"
let rx_dst = Psd_ip.Addr.of_string "10.0.0.2"

let rx_segment_bytes =
  let payload =
    Psd_mbuf.Mbuf.of_string (String.init 1460 (fun i -> Char.chr (i land 0xff)))
  in
  let hdr =
    {
      Psd_tcp.Segment.src_port = 5001;
      dst_port = 1234;
      seq = 7000;
      ack = 42;
      flags = { Psd_tcp.Segment.no_flags with ack = true };
      window = 16384;
      mss = None;
    }
  in
  let m = Psd_tcp.Segment.encode hdr ~src:rx_src ~dst:rx_dst ~payload in
  Psd_mbuf.Mbuf.to_bytes m

let rx_sockbuf = Psd_mbuf.Mbuf.empty ()

let rx_datapath () =
  match
    Psd_tcp.Segment.decode rx_segment_bytes ~src:rx_src ~dst:rx_dst
  with
  | Error _ -> failwith "rx_datapath: decode failed"
  | Ok (_hdr, payload) ->
    Psd_mbuf.Mbuf.concat rx_sockbuf payload;
    let read = Psd_mbuf.Mbuf.split rx_sockbuf (Psd_mbuf.Mbuf.length rx_sockbuf) in
    Psd_mbuf.Mbuf.length read

(* The steady-state transmit inner loop, isolated from the simulator:
   one MSS is viewed out of a standing send queue (no retain copy), the
   TCP header is prepended and the checksum run over the chain, the
   IP and Ethernet headers are prepended, and the chain is gathered
   into the wire frame — the one body copy of the zero-copy send path.
   The send queue is built once; per-run work allocates only view and
   header records plus the frame itself. *)
let tx_sndq =
  Psd_mbuf.Mbuf.of_string
    (String.init 4096 (fun i -> Char.chr (i land 0xff)))

let tx_datapath () =
  let payload = Psd_mbuf.Mbuf.sub_view tx_sndq ~off:0 ~len:1460 in
  let hdr =
    {
      Psd_tcp.Segment.src_port = 1234;
      dst_port = 5001;
      seq = 9000;
      ack = 77;
      flags = { Psd_tcp.Segment.no_flags with ack = true; psh = true };
      window = 16384;
      mss = None;
    }
  in
  let m = Psd_tcp.Segment.encode hdr ~src:rx_dst ~dst:rx_src ~payload in
  ignore (Psd_mbuf.Mbuf.prepend m 20);
  ignore (Psd_mbuf.Mbuf.prepend m 14);
  Bytes.length (Psd_mbuf.Mbuf.to_bytes m)

(* The kernel filter set at churn's size: 200 session filters stand (the
   TIME_WAIT sessions a Library placement keeps), and each run installs
   one connected session's filter and removes it again, as a session
   migration does. *)
let netdev_200 =
  let eng = Psd_sim.Engine.create () in
  let host =
    Psd_mach.Host.create ~eng ~plat:Psd_cost.Platform.decstation ~name:"bench"
  in
  let seg = Psd_link.Segment.create eng () in
  let dev =
    Psd_mach.Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1)
  in
  for port = 1025 to 1224 do
    let flat = Psd_bpf.Filter.flat_of_spec { spec with local_port = port } in
    ignore
      (Psd_mach.Netdev.attach dev ~prio:5 (Flat flat) ~sink:(Enqueue ignore))
  done;
  dev

let netdev_attach_detach () =
  let id =
    Psd_mach.Netdev.attach netdev_200 ~prio:5
      (Flat (Psd_bpf.Filter.flat_of_spec spec))
      ~sink:(Enqueue ignore)
  in
  Psd_mach.Netdev.detach netdev_200 id

(* One who-has for an address no host owns, from a sender no host has
   cached, heard by [arp_hosts] Mach 2.5 in-kernel hosts: each takes the
   receive interrupt, queues the frame for its netisr, and the netisr
   drops it. The farm's client segments carry mostly these. *)
let arp_hosts = 32

let arp_who_has =
  let eng = Psd_sim.Engine.create () in
  let seg = Psd_link.Segment.create eng () in
  for i = 1 to arp_hosts do
    ignore
      (Psd_core.System.create ~eng ~segment:seg ~config:Cfg.mach25_kernel
         ~addr:(Printf.sprintf "10.0.0.%d" i)
         ~name:(Printf.sprintf "h%d" i) ())
  done;
  let src_mac = Psd_link.Macaddr.of_host_id 200 in
  let raw = Psd_link.Segment.attach seg ~mac:src_mac in
  let payload =
    Psd_arp.Packet.encode
      {
        Psd_arp.Packet.op = Psd_arp.Packet.Request;
        sender_mac = src_mac;
        sender_ip = Psd_ip.Addr.of_string "10.0.0.200";
        target_mac = Psd_link.Macaddr.of_string "\x00\x00\x00\x00\x00\x00";
        target_ip = Psd_ip.Addr.of_string "10.0.0.250";
      }
  in
  let hs = Psd_link.Frame.header_size in
  let frame = Bytes.make (hs + Bytes.length payload) '\x00' in
  Psd_link.Frame.set_header frame ~off:0 ~dst:Psd_link.Macaddr.broadcast
    ~src:src_mac ~ethertype:Psd_link.Frame.ethertype_arp;
  Bytes.blit payload 0 frame hs (Bytes.length payload);
  fun () ->
    Psd_link.Segment.transmit raw frame;
    Psd_sim.Engine.run_for eng (Psd_sim.Time.ms 1)

(* minor words one who-has costs per receiving host, warm *)
let arp_words_per_host () =
  arp_who_has ();
  let rounds = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    arp_who_has ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (rounds * arp_hosts)

let arp_row = Printf.sprintf "arp who-has @%d hosts" arp_hosts

(* The execution forms protocol work can take below the socket
   boundary, each on an engine of its own and [form_ops] operations per
   run. A sleep here is refused its bypass: a second sleeper, half a
   period out of phase, always holds an earlier event, so every sleep
   takes the two-step schedule (two events). *)
let form_ops = 64
let period = 10

(* two sleepers half a period apart, started by [start]; a run advances
   [form_ops] half-periods, so each sleeper wakes and sleeps again
   [form_ops / 2] times *)
let refused_sleeps start =
  let eng = E.create () in
  start eng;
  E.run_for eng (period / 2);
  start eng;
  E.run_for eng 0;
  (eng, fun () -> E.run_for eng (form_ops * period / 2))

let fiber_sleep =
  refused_sleeps (fun eng ->
      E.spawn eng (fun () ->
          while true do
            E.sleep eng period
          done))

let k_sleep =
  refused_sleeps (fun eng ->
      let rec sleeper () =
        if E.sleep_inline eng period then sleeper ()
        else E.sleep_k eng period sleeper
      in
      E.schedule eng 0 sleeper)

(* a fiber suspends [form_ops] times, each resumed at once from its
   register callback, then sleeps to the run's end: one refused sleep
   per run rides along *)
let suspend_resume =
  let eng = E.create () in
  E.spawn eng (fun () ->
      while true do
        for _ = 1 to form_ops do
          E.suspend eng (fun resume -> resume ())
        done;
        E.sleep eng period
      done);
  E.run_for eng 0;
  (eng, fun () -> E.run_for eng period)

(* [form_ops] one-stage tasks, each started and then ended through
   [tail] (its last stage under the fiber handler) or [stage] plus
   [finish] *)
let task_end ~tail =
  let eng = E.create () in
  let task = E.Task.create eng ~name:"bench" in
  let last () = () in
  let body =
    if tail then fun () -> E.Task.tail task last ()
    else fun () ->
      E.Task.stage task last ();
      E.Task.finish task
  in
  ( eng,
    fun () ->
      for _ = 1 to form_ops do
        E.Task.start task body ()
      done;
      E.run_for eng 0 )

let spawn_empty =
  let eng = E.create () in
  let body () = () in
  ( eng,
    fun () ->
      for _ = 1 to form_ops do
        E.spawn eng body
      done;
      E.run_for eng 0 )

let forms =
  [
    ("form fiber sleep, refused", fiber_sleep);
    ("form sleep_k, refused", k_sleep);
    ("form suspend+resume", suspend_resume);
    ("form task start+stage+finish", task_end ~tail:false);
    ("form task start+tail", task_end ~tail:true);
    ("form spawn", spawn_empty);
  ]

(* minor words and engine events one operation of a form costs, warm;
   every form's engine is its own, so the event count is exact *)
let form_counts (eng, run) =
  run ();
  let rounds = 100 in
  let ops = float_of_int (rounds * form_ops) in
  let words = Gc.minor_words () and events = E.events_scheduled eng in
  for _ = 1 to rounds do
    run ()
  done;
  ( (Gc.minor_words () -. words) /. ops,
    float_of_int (E.events_scheduled eng - events) /. ops )

let table2_cell () =
  ignore (W.Ttcp.run ~mb:1 Cfg.library_shm_ipf);
  ignore
    (W.Protolat.run ~rounds:20 ~proto:W.Protolat.Udp ~size:1
       Cfg.library_shm_ipf)

(* The domain-parallel table2 cell, at 1 shard and at 2 domains: the
   ratio is the measured 2-domain speedup (or, on a host without two
   free cores, the synchronization overhead) of the sharded engine on
   the same workload. *)
let table2_par_cell shards () =
  ignore
    (W.Ttcp.run ~mb:1
       ~wire:(W.Wire.Duplex { shards; domains = shards > 1 })
       Cfg.library_shm_ipf)

let workloads =
  [
    ( "checksum_ref_1500B",
      fun () -> ignore (ref_checksum buf1500 ~off:0 ~len:1500) );
    ( "checksum_fast_1500B",
      fun () -> ignore (Psd_util.Checksum.of_bytes buf1500 ~off:0 ~len:1500) );
    ( "checksum_fast_64B",
      fun () -> ignore (Psd_util.Checksum.of_bytes buf1500 ~off:0 ~len:64) );
    ( "bpf_session_interp",
      fun () -> ignore (Psd_bpf.Vm.run_exn prog match_frame) );
    ( "bpf_session_compiled",
      fun () -> ignore (Psd_bpf.Compile.run compiled match_frame) );
    ( "bpf_session_flat",
      fun () -> ignore (Psd_bpf.Filter.flat_run flat match_frame) );
    ("mbuf_churn_4096B", fun () -> ignore (mbuf_churn ()));
    ("rx_datapath_1460B", fun () -> ignore (rx_datapath ()));
    ("tx_datapath_1460B", fun () -> ignore (tx_datapath ()));
    ("netdev attach+detach @200", netdev_attach_detach);
    (arp_row, arp_who_has);
    ("table2_ttcp_protolat_cell", fun () -> table2_cell ());
    ("table2_ttcp_par_1dom", table2_par_cell 1);
    ("table2_ttcp_par_2dom", table2_par_cell 2);
  ]
  @ List.map (fun (name, (_, run)) -> (name, run)) forms

(* --- measurement ------------------------------------------------------ *)

let measure () =
  (* Bench-harness GC config: the table2 cell allocates a few million
     minor words per run, so with the default 256k-word nursery the
     minor-collection count is a property of the harness, not of the
     code under test. A large nursery takes the collector out of the
     measurement; the smoke path deliberately keeps defaults. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let tests =
    List.map
      (fun (name, f) -> Test.make ~name (Staged.stage f))
      workloads
  in
  let grouped = Test.make_grouped ~name:"fastpath" ~fmt:"%s/%s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate name =
    match Hashtbl.find_opt results ("fastpath/" ^ name) with
    | Some r -> (
      match Analyze.OLS.estimates r with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  List.filter_map
    (fun (name, _) -> Option.map (fun e -> (name, e)) (estimate name))
    workloads

let ratio results num den =
  match (List.assoc_opt num results, List.assoc_opt den results) with
  | Some n, Some d when d > 0.0 -> Some (n /. d)
  | _ -> None

let speedups =
  [
    ("checksum_1500B", "checksum_ref_1500B", "checksum_fast_1500B");
    ("bpf_session_compiled", "bpf_session_interp", "bpf_session_compiled");
    ("bpf_session_flat", "bpf_session_interp", "bpf_session_flat");
    ("ttcp_par_2dom", "table2_ttcp_par_1dom", "table2_ttcp_par_2dom");
  ]

(* --- entry ------------------------------------------------------------ *)

let smoke () =
  (* tiny iteration counts: prove every workload still runs *)
  List.iter
    (fun (name, f) ->
      let reps =
        if
          String.starts_with ~prefix:"table2" name
          || String.starts_with ~prefix:"netdev" name
        then 1
        else 100
      in
      for _ = 1 to reps do
        f ()
      done;
      Format.printf "bench-smoke %-28s ok (%d reps)@." name reps)
    workloads;
  Format.printf "bench-smoke %-28s %.1f minor words/host@." arp_row
    (arp_words_per_host ());
  List.iter
    (fun (name, form) ->
      let words, events = form_counts form in
      Format.printf "bench-smoke %-28s %.1f minor words, %.2f events/op@."
        name words events)
    forms

let () =
  match Sys.argv with
  | [| _; "--smoke" |] -> smoke ()
  | [| _; arg |] ->
    Printf.eprintf "micro: unknown argument %S\nusage: micro.exe [--smoke]\n" arg;
    exit 2
  | _ ->
    let results = measure () in
    Format.printf "=== fastpath microbenchmarks ===@.";
    List.iter
      (fun (name, est) -> Format.printf "  %-28s %12.1f ns/run@." name est)
      results;
    Format.printf "=== broadcast who-has, per receiving host ===@.";
    Option.iter
      (fun est ->
        Format.printf "  %-28s %12.1f ns/host@." arp_row
          (est /. float_of_int arp_hosts))
      (List.assoc_opt arp_row results);
    Format.printf "  %-28s %12.1f words/host@." arp_row (arp_words_per_host ());
    Format.printf "=== execution forms, per operation ===@.";
    List.iter
      (fun (name, form) ->
        let words, events = form_counts form in
        Option.iter
          (fun est ->
            Format.printf "  %-28s %8.1f ns %6.1f words %5.2f events@." name
              (est /. float_of_int form_ops)
              words events)
          (List.assoc_opt name results))
      forms;
    Format.printf "=== speedups (%d cores) ===@."
      (Domain.recommended_domain_count ());
    List.iter
      (fun (label, num, den) ->
        Option.iter
          (fun r -> Format.printf "  %-28s %12.2fx@." label r)
          (ratio results num den))
      speedups
