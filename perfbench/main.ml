(* psdperf: one workload, one run.

     psdperf --workload rpc --seed 1 --seconds 15 --trace 0

   With [--trace 0] the run measures for [--seconds] and prints the
   end-to-end metrics; with [--trace 1] it makes a fixed number of
   rotations twice (untraced, then traced) and prints the per-layer
   metrics. The last line of standard output is the result object. *)

open Common

let default_seed = 1

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable size : Workloads.size;
  mutable fingerprints : string;
  mutable out : string;
  mutable write_fingerprint : bool;
}

let parse () =
  let o =
    {
      workload = "";
      seed = default_seed;
      seconds = 10.;
      trace = false;
      size = Workloads.Default;
      fingerprints = "perfbench/fingerprints";
      out = ".perfbench";
      write_fingerprint = false;
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- s), " bulk|rpc|farm|churn");
      ("--seed", Arg.Int (fun n -> o.seed <- n), " workload seed");
      ("--seconds", Arg.Float (fun f -> o.seconds <- f), " timed phase length");
      ("--trace", Arg.Int (fun n -> o.trace <- n <> 0), " 1: traced per-layer run");
      ( "--size",
        Arg.Symbol
          ( [ "default"; "tiny" ],
            fun s ->
              o.size <- (if s = "tiny" then Workloads.Tiny else Workloads.Default) ),
        " op sizes (tiny: smoke test)" );
      ("--fingerprints", Arg.String (fun s -> o.fingerprints <- s), " stored virtual results");
      ("--out", Arg.String (fun s -> o.out <- s), " directory for span files");
      ( "--write-fingerprint",
        Arg.Unit (fun () -> o.write_fingerprint <- true),
        " store this run's virtual results as the fingerprint" );
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad a)) "psdperf [options]";
  if not (List.mem o.workload Workloads.names) then begin
    prerr_endline ("psdperf: --workload must be one of bulk, rpc, farm, churn");
    exit 2
  end;
  o

(* ---- correctness ------------------------------------------------------ *)

let fingerprint_path o =
  Filename.concat o.fingerprints
    (Printf.sprintf "%s-seed%d.txt" o.workload o.seed)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Ops whose virtual result differs from [reference] fail. *)
let compare_lines ~what reference lines =
  if List.length reference <> List.length lines then
    Acc.fail
      ~ops:(List.fold_left (fun n (_, k) -> n + k) 0 lines)
      (what ^ ": different number of virtual results")
  else
    List.iter2
      (fun r (l, k) ->
        if not (String.equal r l) then
          Acc.fail ~ops:k (Printf.sprintf "%s: %s <> %s" what l r))
      reference lines

(* The default seed at the default size has a stored fingerprint; any
   other seed falls back to the invariants each op checks itself and to
   identical virtual results across rotations. *)
let check_fingerprint o first =
  if o.seed = default_seed && o.size = Workloads.Default then begin
    let path = fingerprint_path o in
    if o.write_fingerprint then begin
      let oc = open_out path in
      List.iter (fun (l, _) -> output_string oc (l ^ "\n")) first;
      close_out oc
    end
    else if Sys.file_exists path then
      compare_lines ~what:"fingerprint" (read_lines path) first
    else Acc.fail "fingerprint file missing"
  end

(* ---- environment ------------------------------------------------------- *)

let env o ~rotations =
  let g = Gc.get () in
  Obj
    [
      ("workload", Str o.workload);
      ("seed", Int o.seed);
      ("seconds", Num o.seconds);
      ("trace", Bool o.trace);
      ("rotations", Int rotations);
      ("ocaml", Str Sys.ocaml_version);
      ("word_size", Int Sys.word_size);
      ( "gc",
        Obj
          [
            ("minor_heap_size", Int g.Gc.minor_heap_size);
            ("space_overhead", Int g.Gc.space_overhead);
            ("max_overhead", Int g.Gc.max_overhead);
            ("allocation_policy", Int g.Gc.allocation_policy);
            ("OCAMLRUNPARAM", Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
          ] );
    ]

let metric value unit_ = Obj [ ("value", Num value); ("unit", Str unit_) ]

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj (List.map (fun (n, v, u) -> (n, metric v u)) metrics));
          ]))

let notes () =
  List.iter (fun n -> prerr_endline ("psdperf: failed: " ^ n)) (List.rev !Acc.cur.notes)

(* ---- untraced run: end-to-end metrics ---------------------------------- *)

(* One rotation's share of the timed phase, with the host-speed probe
   taken right after it. *)
type chunk = {
  wall : int;
  probe : float;
  payload : int;
  rts : int;
  cn : int;
  lat0 : int;  (* its ops' index range in the op wall samples *)
  lat1 : int;
}

let rotation_chunk w =
  let a = !Acc.cur in
  let b0 = a.busy_ns and p0 = a.payload and r0 = a.round_trips
  and c0 = a.conns and l0 = Samples.count a.lat in
  let lines = w.Workloads.rotation () in
  let wall = a.busy_ns - b0 in
  ( lines,
    {
      wall;
      probe = host_probe ~min_ns:(wall / 20);
      payload = a.payload - p0;
      rts = a.round_trips - r0;
      cn = a.conns - c0;
      lat0 = l0;
      lat1 = Samples.count a.lat;
    } )

(* p99, or where a run has fewer than 1000 ops, the highest percentile
   that still has ten ops beyond it (p50 at the least). *)
let tail_pct lat =
  let n = float_of_int (max 1 (Samples.count lat)) in
  Float.max 50. (Float.min 99. (100. *. (1. -. (10. /. n))))

let median_probe chunks =
  let probes = Samples.create () in
  List.iter (fun c -> Samples.add probes (int_of_float c.probe)) chunks;
  Samples.median probes

(* Rates and op latency percentiles over [chunks]. With [scaled], rates
   and the median are scaled by each rotation's host-speed probe, and the
   tail by the run's median probe: a tail op is a transient that the
   probe after its rotation does not see, so scaling it by that probe
   would add noise, not remove it. *)
let rates a chunks ~scaled =
  let f c = if scaled then reference_nominal_ns /. c.probe else 1. in
  let run_f = if scaled then reference_nominal_ns /. median_probe chunks else 1. in
  let busy = List.fold_left (fun s c -> s +. (float_of_int c.wall *. f c)) 0. chunks in
  let sum g = float_of_int (List.fold_left (fun s c -> s + g c) 0 chunks) in
  let lat = Samples.create () in
  List.iter
    (fun c ->
      for i = c.lat0 to c.lat1 - 1 do
        Samples.add lat (int_of_float (float_of_int (Samples.get a.Acc.lat i) *. f c))
      done)
    chunks;
  let busy = busy /. 1e9 in
  [
    ("payload_mb_per_s", sum (fun c -> c.payload) /. 1e6 /. busy, "MB/s");
    ("round_trips_per_s", sum (fun c -> c.rts) /. busy, "1/s");
    ("conns_per_s", sum (fun c -> c.cn) /. busy, "1/s");
    ("op_wall_us_p50", Samples.percentile lat 50. /. 1e3, "us");
    ("op_wall_us_p99", Samples.percentile a.Acc.lat (tail_pct lat) *. run_f /. 1e3, "us");
  ]

let end_to_end o =
  let w = Workloads.make o.workload ~seed:o.seed ~size:o.size in
  w.prepare ();
  let t0 = now_ns () in
  let first, c1 = rotation_chunk w in
  check_fingerprint o first;
  let reference = List.map fst first in
  let chunks = ref [ c1 ] in
  while ns_to_s (now_ns () - t0) < o.seconds do
    let lines, c = rotation_chunk w in
    compare_lines ~what:"repeat" reference lines;
    chunks := c :: !chunks
  done;
  let a = !Acc.cur in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let info kvs = print_endline (json_to_string (Obj kvs)) in
  info [ ("env", env o ~rotations:(List.length !chunks)) ];
  info
    [
      ("op_wall_samples", Int (Samples.count a.lat));
      ("op_wall_tail_percentile", Num (tail_pct a.lat));
      ("setup_samples", Int (Samples.count a.setup));
      ("host_probe_ns_median", Num (median_probe !chunks));
      ( "unscaled",
        Obj
          (List.map (fun (n, v, _) -> (n, Num v)) (rates a !chunks ~scaled:false)
          @ [ ("setup_s", Num (Samples.median a.setup_raw /. 1e9)) ]) );
    ];
  notes ();
  print_result
    ~correct:(a.failed = 0) ~attempted:a.attempted ~failed:a.failed
    (rates a !chunks ~scaled:true
    @ [
        ("bytes_per_conn", a.bytes_per_conn, "B");
        ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6, "MB");
        ("setup_s", Samples.median a.setup /. 1e9, "s");
      ])

(* ---- traced run: per-layer metrics ------------------------------------- *)

let pass w =
  Acc.reset ();
  w.Workloads.prepare ();
  let g0 = gc_snapshot () and c0 = copies_snapshot () in
  let lines =
    List.concat (List.init w.Workloads.trace_rotations (fun _ -> w.Workloads.rotation ()))
  in
  let g1 = gc_snapshot () and c1 = copies_snapshot () in
  (!Acc.cur, lines, (g0, g1), (c0, c1))

let per_layer o =
  Acc.probing := false;
  let w = Workloads.make o.workload ~seed:o.seed ~size:o.size in
  (* A: untraced, for exact counts and the overhead baseline *)
  Acc.breakdown_round_trips := true;
  let a, lines_a, ((mw0, pw0, mc0), (mw1, pw1, mc1)), (c0, c1) = pass w in
  Acc.breakdown_round_trips := false;
  (* B: the same rotations with spans on, from a fresh instance so its
     payload generator starts over *)
  let w = Workloads.make o.workload ~seed:o.seed ~size:o.size in
  Span.reset ();
  Span.on := true;
  let b, lines_b, _, _ = pass w in
  (* frame capture and layer replays, still traced *)
  Acc.reset ();
  let captured =
    Replay.capture ~seed:o.seed ~configs:w.Workloads.capture_configs
      ~msg_len:w.Workloads.capture_msg
  in
  let ipf = Replay.ip_frames captured in
  let c = a.Acc.counts in
  let ops = float_of_int (max 1 a.Acc.attempted) in
  let events_per_op = float_of_int c.(Counts.events) /. ops in
  let bpf_ns = Replay.bpf_demux captured ipf in
  let ip_ns = Replay.ip_decode ipf in
  let tcp_ns = Replay.tcp_decode ipf in
  let cks_ns = Replay.checksum ~seed:o.seed in
  let sim_ns =
    Replay.engine ~events_per_op
      ~timers_per_op:(float_of_int c.(Counts.tcp_segs) /. ops)
  in
  Span.on := false;
  (* correctness: the traced pass reproduces the untraced one *)
  Acc.reset ();
  let fp = !Acc.cur in
  if o.seed = default_seed && o.size = Workloads.Default then begin
    let n = List.length lines_a / w.Workloads.trace_rotations in
    check_fingerprint o (List.filteri (fun i _ -> i < n) lines_a)
  end;
  compare_lines ~what:"traced run" (List.map fst lines_a) lines_b;
  let attempted = a.attempted + b.Acc.attempted in
  let failed = a.failed + b.failed + fp.failed in
  (* spans *)
  (try Sys.mkdir o.out 0o755 with Sys_error _ -> ());
  let span_file =
    Filename.concat o.out (Printf.sprintf "spans-%s-seed%d.json" o.workload o.seed)
  in
  Span.write span_file;
  let summary = Span.summary () in
  let total name =
    List.fold_left (fun acc (n, _, t, _) -> if n = name then acc + t else acc) 0 summary
  in
  let mean_us name =
    match List.find_opt (fun (n, _, _, _) -> n = name) summary with
    | Some (_, k, t, _) when k > 0 -> float_of_int t /. float_of_int k /. 1e3
    | _ -> 0.
  in
  let self_of prefix =
    List.fold_left
      (fun acc (n, _, _, s) -> if String.starts_with ~prefix n then acc + s else acc)
      0 summary
  in
  let sim_run_ns =
    total "sim.run" + total "workloads.ttcp" + total "workloads.scale"
  in
  let host_total i = if w.hosts_in_setup then a.warm.(i) else c.(i) in
  let host_count i =
    if w.hosts_in_setup then
      float_of_int a.warm.(i) /. float_of_int (max 1 a.warm_conns)
    else float_of_int c.(i) /. ops
  in
  let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let wire_frames0, wire_bytes0, rxc0, txc0, cb0 = c0 in
  let wire_frames1, wire_bytes1, rxc1, txc1, cb1 = c1 in
  let frames = wire_frames1 - wire_frames0 in
  let conns = if w.hosts_in_setup then a.warm_conns else a.conns in
  let phases =
    List.map
      (fun ph ->
        ( "cost.phase_ns." ^ phase_name ph,
          float_of_int (Psd_cost.Breakdown.total a.breakdown ph)
          /. float_of_int (max 1 a.breakdown_ops),
          "ns" ))
      Psd_cost.Phase.all
  in
  print_endline (json_to_string (Obj [ ("env", env o ~rotations:w.trace_rotations) ]));
  print_endline
    (json_to_string
       (Obj
          [
            ("spans_file", Str span_file);
            ("frames_captured", Int (List.length captured));
          ]));
  if failed > 0 then begin
    List.iter (fun n -> prerr_endline ("psdperf: failed: " ^ n)) (List.rev (a.notes @ b.notes @ fp.notes))
  end;
  print_result ~correct:(failed = 0) ~attempted ~failed
    ([
       ("sim.events_per_op", events_per_op, "count");
       ("sim.run_s", ns_to_s sim_run_ns, "s");
       ( "sim.ns_per_event",
         float_of_int sim_run_ns /. float_of_int (max 1 c.(Counts.events)),
         "ns" );
       ("sim.replay_ns_per_event", sim_ns, "ns");
       ("link.frames_per_op", float_of_int frames /. ops, "count");
       ("link.wire_bytes_per_op", float_of_int (wire_bytes1 - wire_bytes0) /. ops, "B");
       ("mach.rx_frames_per_op", host_count Counts.rx_frames, "count");
       ("mach.rx_unmatched", float_of_int (host_total Counts.rx_unmatched), "count");
       ( "mach.nic_proto_occupancy_pct",
         ratio c.(Counts.nic_busy) c.(Counts.nic_capacity),
         "%" );
       ("mach.nic_ring_stalls", float_of_int c.(Counts.nic_ring_stalls), "count");
       ("bpf.demux_ns_per_frame", bpf_ns, "ns");
       ("ip.pkts_per_op", host_count Counts.ip_pkts, "count");
       ("ip.header_decode_ns", ip_ns, "ns");
       ("udp.dgrams_per_op", host_count Counts.udp_dgrams, "count");
       ("tcp.segs_per_op", host_count Counts.tcp_segs, "count");
       ( "tcp.predict_hit_ratio",
         ratio
           (host_total Counts.predict_hit)
           (host_total Counts.predict_hit + host_total Counts.predict_miss),
         "ratio" );
       ("tcp.rexmt_segs", float_of_int c.(Counts.rexmt), "count");
       ("tcp.acks_delayed", float_of_int (host_total Counts.acks_delayed), "count");
       ("tcp.seg_decode_ns", tcp_ns, "ns");
       ( "tcp.pool_reuse_ratio",
         ratio c.(Counts.pool_hits) (c.(Counts.pool_fresh) + c.(Counts.pool_hits)),
         "ratio" );
       ("util.checksum_ns_per_kb", cks_ns, "ns");
       ("mbuf.rx_body_copies_per_pkt", ratio (rxc1 - rxc0) frames, "count");
       ("mbuf.tx_body_copies_per_pkt", ratio (txc1 - txc0) frames, "count");
       ( "mbuf.copied_bytes_per_payload_byte",
         ratio (cb1 - cb0) a.payload,
         "ratio" );
       ("core.system_create_us", mean_us "core.system_create", "us");
       ("core.app_create_us", mean_us "core.app_create", "us");
       ("core.migrations_per_conn", ratio (host_total Counts.migrations) conns, "count");
       ("core.connect_wall_us", mean_us "socket.connect", "us");
       ("core.close_wall_us", mean_us "socket.close", "us");
       ("gc.minor_words_per_op", (mw1 -. mw0) /. ops, "words");
       ("gc.promoted_words_per_op", (pw1 -. pw0) /. ops, "words");
       ("gc.major_collections", float_of_int (mc1 - mc0), "count");
       ("cost.virtual_ns_per_op", float_of_int a.virtual_ns /. ops, "ns");
     ]
    @ phases
    @ [
        ("failed_op_ratio", ratio failed attempted, "ratio");
        ( "trace.overhead_pct",
          100. *. (float_of_int b.busy_ns /. float_of_int (max 1 a.busy_ns) -. 1.),
          "%" );
        ("trace.spans", float_of_int (List.length (Span.all ())), "count");
        ("self_s.setup", ns_to_s (self_of "setup"), "s");
        ("self_s.core", ns_to_s (self_of "core."), "s");
        ("self_s.sim", ns_to_s (self_of "sim."), "s");
        ("self_s.socket", ns_to_s (self_of "socket."), "s");
        ("self_s.workloads", ns_to_s (self_of "workloads."), "s");
        ("self_s.replay", ns_to_s (self_of "replay."), "s");
      ])

let () =
  let o = parse () in
  if o.trace then per_layer o else end_to_end o
