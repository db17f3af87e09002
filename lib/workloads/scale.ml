(* Control-plane scale workload: many client hosts drive a large number
   of concurrent TCP connections through a gateway router to one
   server, exercising exactly the machinery ROADMAP item 3 calls out —
   per-connection timers (wheel), ephemeral-port allocation, listener
   backlog/accept paths, and per-connection memory.

   Topology — client hosts pack 250 per /24 segment, and the farm grows
   segments as needed, so host count is bounded by addressing (250
   segments x 250 hosts = 62,500), not by one subnet:

     seg 1: client[0..249]     10.0.1.1..250  ---+
     seg 2: client[250..499]   10.0.2.1..250  ---+-- router --- server
     ...          10.0.<k>.0/24, iface .254   ---+    10.1.0.254  10.1.0.1

   Each connection: connect, send one ping, read the echo, then hold
   the connection open until a common close deadline so that all
   [conns] connections are simultaneously established at the sampling
   point; then close and drain (FIN exchanges + 2MSL).

   Connects are staggered [spacing_ns] apart, round-robin across
   client hosts, to keep the SYN arrival rate under the server's
   simulated service rate — otherwise the backlog overflows and the
   sweep measures retransmission storms rather than steady-state
   control-plane behavior.

   The server echoes each connection's ping and then parks an
   event-driven {!Sockets.on_hangup} hook instead of blocking in
   [recv]: at a million connections, a per-connection reader fiber and
   the receive buffer it pins would dominate idle memory.

   Wall-clock is measured around the whole simulation; the GC walks
   used for the memory samples are timed and excluded so events/sec
   reflects simulator throughput, not measurement overhead. *)

open Psd_core

type result = {
  conns : int;
  hosts : int;
  segments : int; (* client /24 segments hung off the gateway *)
  connected : int;
  echoed : int;
  failed : int;
  peak_pcbs : int; (* live PCBs (all stacks) at the sampling point *)
  bytes_per_conn : float; (* full footprint: pcbs, sockets, fibers *)
  bytes_per_pcb : float;
  events : int;
  virtual_ns : int;
  wall_s : float;
  events_per_wall_s : float;
  wall_ms_per_sim_s : float;
  rexmt_segs : int;
  injected : int;
  final_pcbs : int; (* leak check: should be 0 after the drain *)
  pool_fresh : int; (* PCB pool counters summed over all stacks *)
  pool_hits : int;
  pool_puts : int;
  pool_free : int;
}

type error =
  | Bad_conns of int (* conns must be >= 1 *)
  | Bad_per_host of int (* per_host must be >= 1 *)
  | Too_many_hosts of { hosts : int; limit : int }

let pp_error fmt = function
  | Bad_conns n -> Format.fprintf fmt "conns must be >= 1 (got %d)" n
  | Bad_per_host n -> Format.fprintf fmt "per_host must be >= 1 (got %d)" n
  | Too_many_hosts { hosts; limit } ->
    Format.fprintf fmt
      "conns/per_host needs %d client hosts; the address plan caps at %d \
       (250 segments x 250 hosts)"
      hosts limit

let server_port = 4000

(* Mach 2.5 in-kernel stacks on 100 Mb/s segments; each connection
   echoes a 64-byte ping; the server's listen backlog is 4096. *)
let config = Psd_cost.Config.mach25_kernel
let bps = 100_000_000
let ping_bytes = 64
let backlog = 4096

(* 250 hosts fit one 10.0.<k>.0/24 segment (.254 is the gateway) *)
let hosts_per_segment = 250
let max_segments = 250
let host_limit = hosts_per_segment * max_segments

(* Validate a conns/per_host combination and derive the farm shape. *)
let plan ~conns ~per_host =
  if conns < 1 then Error (Bad_conns conns)
  else if per_host < 1 then Error (Bad_per_host per_host)
  else
    let hosts = (conns + per_host - 1) / per_host in
    if hosts > host_limit then
      Error (Too_many_hosts { hosts; limit = host_limit })
    else Ok (hosts, (hosts + hosts_per_segment - 1) / hosts_per_segment)

let client_addr h =
  Printf.sprintf "10.0.%d.%d"
    ((h / hosts_per_segment) + 1)
    ((h mod hosts_per_segment) + 1)

let segment_gateway k = Printf.sprintf "10.0.%d.254" (k + 1)
let segment_net k = Printf.sprintf "10.0.%d.0" (k + 1)
let server_addr = "10.1.0.1"
let server_gateway = "10.1.0.254"

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Echo the ping back, then hand the connection to an [on_hangup]
   hook and exit the fiber: the close still happens at exactly the
   virtual time a blocked reader would have observed EOF, but the idle
   hold costs no parked fiber and no inflated receive buffer. *)
let serve_echo eng c =
  Psd_sim.Engine.spawn eng ~name:"scale-echo" (fun () ->
      let rec echo got =
        if got >= ping_bytes then
          Sockets.on_hangup c (fun () -> Sockets.close c)
        else
          match Sockets.recv c ~max:65536 with
          | Ok "" | Error _ -> Sockets.close c
          | Ok d -> (
            match Sockets.send c d with
            | Ok _ -> echo (got + String.length d)
            | Error _ -> Sockets.close c)
      in
      echo 0)

let sum_pool_stats all_systems =
  List.fold_left
    (fun (a, b, c, d) sys ->
      match System.kernel_stack sys with
      | Some stack ->
        let f, h, p, fr = Psd_tcp.Tcp.pool_stats (Netstack.tcp stack) in
        (a + f, b + h, c + p, d + fr)
      | None -> (a, b, c, d))
    (0, 0, 0, 0) all_systems

let sum_rexmt all_systems =
  List.fold_left
    (fun acc sys ->
      List.fold_left
        (fun acc st -> acc + st.Psd_tcp.Tcp.rexmt_segs)
        acc
        (System.stacks_tcp_stats sys))
    0 all_systems

(* Clients spread over the shards other than the server and router's
   shard 0 (all on shard 0 when there is one shard). With enough
   segments, whole segments map to shards ([h / 250]), giving each
   domain contiguous farms; with fewer segments than client shards the
   per-host round-robin keeps every shard busy — and reproduces the
   exact partition the differential suite has always checked for
   single-segment runs. *)
let shard_of ~nshards ~nsegs h =
  if nshards = 1 then 0
  else if nsegs >= nshards - 1 then
    1 + (h / hosts_per_segment mod (nshards - 1))
  else 1 + (h mod (nshards - 1))

let run ?(conns = 1000) ?(per_host = 500)
    ?(spacing_ns = Psd_sim.Time.us 2000) ?(hold_ns = Psd_sim.Time.sec 5)
    ?(seed = 11) ?fault ?(wire = Wire.Shared) () =
  match plan ~conns ~per_host with
  | Error e -> Error e
  | Ok (hosts, nsegs) ->
  let nshards = Wire.shards wire in
  let shard = Psd_sim.Shard.create ~seed ~n:nshards () in
  let shard_of = shard_of ~nshards ~nsegs in
  let eng0 = Psd_sim.Shard.engine shard 0 in
  let client_segs =
    Array.init nsegs (fun _ -> Wire.segment wire shard ~bps ())
  in
  let seg_srv = Wire.segment wire shard ~bps () in
  let server =
    System.create ~eng:eng0 ~segment:seg_srv ~config ~addr:server_addr
      ~name:"srv" ()
  in
  let clients =
    Array.init hosts (fun h ->
        System.create
          ~eng:(Psd_sim.Shard.engine shard (shard_of h))
          ~segment:client_segs.(h / hosts_per_segment)
          ~config ~addr:(client_addr h)
          ~name:(Printf.sprintf "cli%d" h)
          ())
  in
  let _router =
    Router.create ~eng:eng0 ~name:"gw"
      ~ifaces:
        (List.init nsegs (fun k -> (client_segs.(k), segment_gateway k))
        @ [ (seg_srv, server_gateway) ])
      ()
  in
  Array.iteri
    (fun h sys ->
      System.add_route sys ~net:"10.1.0.0" ~mask:"255.255.255.0"
        ~gateway:(segment_gateway (h / hosts_per_segment)))
    clients;
  for k = 0 to nsegs - 1 do
    System.add_route server ~net:(segment_net k) ~mask:"255.255.255.0"
      ~gateway:server_gateway
  done;
  let all_systems = server :: Array.to_list clients in
  let wire_faults =
    Wire.install_faults wire ~seed shard fault
      ~segments:(Array.to_list client_segs @ [ seg_srv ])
      ~hosts:all_systems
  in
  (* Per-shard counters, each written only by the domain that owns the
     shard; the driver loop reads them between rounds, when the domains
     are joined. The PCB counts are maintained by each kernel stack as
     connections enter and leave its table, so sampling is O(shards)
     instead of a walk over every host's stack. *)
  let counters () = Array.init nshards (fun _ -> ref 0) in
  let sum a = Array.fold_left (fun acc r -> acc + !r) 0 a in
  let connected = counters () and echoed = counters ()
  and failed = counters () and live_pcbs = counters () in
  List.iteri
    (fun i sys ->
      let live_pcbs = live_pcbs.(if i = 0 then 0 else shard_of (i - 1)) in
      match System.kernel_stack sys with
      | Some stack ->
        Psd_tcp.Tcp.set_conn_gauge (Netstack.tcp stack) (fun d ->
            live_pcbs := !live_pcbs + d)
      | None -> ())
    all_systems;
  (* server: accept forever, echo each connection until it hangs up *)
  let srv_app = System.app server ~name:"scale-srv" in
  Psd_sim.Engine.spawn eng0 ~name:"scale-accept" (fun () ->
      let l = Sockets.stream srv_app in
      ignore (ok "scale bind" (Sockets.bind l ~port:server_port ()));
      ok "scale listen" (Sockets.listen l ~backlog ());
      let rec loop () =
        let c = ok "scale accept" (Sockets.accept l) in
        serve_echo eng0 c;
        loop ()
      in
      loop ());
  (* Baseline after the topology is built but before any per-connection
     state exists: the delta at peak is what [conns] connections cost.
     [Gc.stat] runs a full major collection itself, so its [live_words]
     counts only reachable data. *)
  let base_words = (Gc.stat ()).Gc.live_words in
  let ramp_ns = conns * spacing_ns in
  let close_at = ramp_ns + hold_ns in
  let ping = String.init ping_bytes (fun i -> Char.chr (i land 0xff)) in
  for h = 0 to hosts - 1 do
    let s = shard_of h in
    let eng = Psd_sim.Shard.engine shard s in
    let connected = connected.(s) and echoed = echoed.(s)
    and failed = failed.(s) in
    let app =
      System.app clients.(h) ~name:(Printf.sprintf "scale-cli%d" h)
    in
    (* connection [g] lives on host [g mod hosts]: consecutive connects
       land on distinct hosts *)
    let g = ref h in
    while !g < conns do
      let start_ns = !g * spacing_ns in
      Psd_sim.Engine.spawn eng ~name:"scale-conn" (fun () ->
          Psd_sim.Engine.sleep eng start_ns;
          let sck = Sockets.stream app in
          match Sockets.connect sck (System.addr server) server_port with
          | Error _ ->
            incr failed;
            Sockets.close sck
          | Ok () ->
            incr connected;
            let finish okp =
              if okp then incr echoed else incr failed;
              (* hold until the common deadline, then depart staggered —
                 a synchronized mass-close would measure a FIN
                 retransmission storm, not control-plane costs *)
              let leave_at = close_at + (start_ns / 2) in
              let nowv = Psd_sim.Engine.now eng in
              if leave_at > nowv then
                Psd_sim.Engine.sleep eng (leave_at - nowv);
              Sockets.close sck
            in
            (match Sockets.send sck ping with
            | Error _ -> finish false
            | Ok _ ->
              let rec drain got =
                if got >= ping_bytes then finish true
                else
                  match Sockets.recv sck ~max:(ping_bytes - got) with
                  | Ok "" | Error _ -> finish false
                  | Ok d -> drain (got + String.length d)
              in
              drain 0));
      g := !g + hosts
    done
  done;
  (* Drive the ramp in fixed virtual-time chunks until every connection
     resolved (echo or failure) or the close deadline arrives; the
     chunking depends only on deterministic state, so two runs with one
     seed take identical schedules. *)
  let wall0 = Unix.gettimeofday () in
  let chunk = Psd_sim.Time.ms 200 in
  while
    sum echoed + sum failed < conns && Psd_sim.Shard.now shard < close_at
  do
    Wire.run_for wire shard chunk
  done;
  (* peak sample: all surviving connections are concurrently open *)
  let peak_pcbs = sum live_pcbs in
  let gc0 = Unix.gettimeofday () in
  let peak_words = (Gc.stat ()).Gc.live_words in
  let gc_cost = Unix.gettimeofday () -. gc0 in
  (* staggered departures + FIN exchanges + TIME_WAIT drain *)
  let drain_until = close_at + (ramp_ns / 2) + Psd_sim.Time.sec 70 in
  let nowv = Psd_sim.Shard.now shard in
  if drain_until > nowv then Wire.run_for wire shard (drain_until - nowv);
  let wall_s = Unix.gettimeofday () -. wall0 -. gc_cost in
  let delta_bytes = float_of_int ((peak_words - base_words) * 8) in
  let events =
    List.init nshards (fun i ->
        Psd_sim.Engine.events_scheduled (Psd_sim.Shard.engine shard i))
    |> List.fold_left ( + ) 0
  in
  let virtual_ns = Psd_sim.Shard.now shard in
  let pool_fresh, pool_hits, pool_puts, pool_free =
    sum_pool_stats all_systems
  in
  Ok
    {
      conns;
      hosts;
      segments = nsegs;
      connected = sum connected;
      echoed = sum echoed;
      failed = sum failed;
      peak_pcbs;
      bytes_per_conn = delta_bytes /. float_of_int (Int.max 1 conns);
      bytes_per_pcb = delta_bytes /. float_of_int (Int.max 1 peak_pcbs);
      events;
      virtual_ns;
      wall_s;
      events_per_wall_s = float_of_int events /. wall_s;
      wall_ms_per_sim_s =
        wall_s *. 1000. /. (float_of_int virtual_ns /. 1e9);
      rexmt_segs = sum_rexmt all_systems;
      injected = Wire.injected wire_faults;
      final_pcbs = sum live_pcbs;
      pool_fresh;
      pool_hits;
      pool_puts;
      pool_free;
    }

let pp fmt r =
  Format.fprintf fmt
    "%7d conns  %4d hosts/%-3d seg | %7d echoed %5d failed | %8.0f B/conn \
     %8.0f B/pcb | %9d events  %8.0f ev/s  %6.1f wall-ms/sim-s | %d rexmt \
     | pool %d/%d/%d/%d"
    r.conns r.hosts r.segments r.echoed r.failed r.bytes_per_conn
    r.bytes_per_pcb r.events r.events_per_wall_s r.wall_ms_per_sim_s
    r.rexmt_segs r.pool_fresh r.pool_hits r.pool_puts r.pool_free
