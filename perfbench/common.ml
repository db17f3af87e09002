(* Shared machinery of the benchmark: a monotonic clock, sample sets,
   in-memory spans, per-layer counters, and JSON output. *)

open Psd_core

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_to_s ns = float_of_int ns /. 1e9

(* ---- sample sets (wall ns per operation) ------------------------------- *)

(* Kept outside the OCaml heap, so that how many ops a run completes does
   not show in its heap metrics. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 1024; n = 0 }

  let add t v =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create int c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let get t i = t.a.{i}
  let count t = t.n

  (* nearest-rank percentile, p in [0, 100] *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      let s = Array.init t.n (fun i -> Array1.unsafe_get t.a i) in
      Array.sort compare s;
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
      float_of_int s.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let median t = percentile t 50.
end

(* ---- host-speed reference ---------------------------------------------

   On a shared host, speed drifts by tens of percent over seconds to
   minutes. The reference is a fixed piece of work that shares no code
   with the repository, shaped like the simulator's own: minor
   allocation, a hashtable of small records, and dependent reads and
   writes over an 8 MB table. Timed right after each rotation and each
   set-up, it says how fast the host ran just then, and every wall time
   is scaled to a host that runs one reference call in
   [reference_nominal_ns]. *)

let reference_nominal_ns = 1e6
let ref_mask = (1 lsl 20) - 1

let ref_table =
  let t = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  for i = 0 to ref_mask do
    t.{i} <- (i * 7919) land ref_mask
  done;
  t

let reference () =
  let h = Hashtbl.create 512 in
  let acc = ref 0 and j = ref 1 in
  for i = 1 to 4_000 do
    let v = Bigarray.Array1.unsafe_get ref_table !j in
    Bigarray.Array1.unsafe_set ref_table !j ((v + i) land ref_mask);
    Hashtbl.replace h (v land 1023) (i, v);
    acc := !acc + List.length [ i; v; !acc ] + (Hashtbl.length h land 1);
    j := (v + !acc) land ref_mask
  done;
  ignore (Sys.opaque_identity !acc)

(* Median ns of one reference call, over at least three calls and at
   least [min_ns] of wall. *)
let host_probe ~min_ns =
  let t0 = now_ns () in
  let times = ref [] and n = ref 0 in
  while !n < 3 || now_ns () - t0 < min_ns do
    let c0 = now_ns () in
    reference ();
    times := (now_ns () - c0) :: !times;
    incr n
  done;
  float_of_int (List.nth (List.sort compare !times) (!n / 2))

(* ---- spans --------------------------------------------------------------

   Recorded only in the traced run, around the benchmark's own calls into
   each layer. Spans around calls made outside the simulation nest on a
   stack; spans opened inside a simulation fiber (socket calls) take the
   innermost such span as their parent and never go on the stack,
   because fibers interleave. *)

module Span = struct
  type t = { id : int; name : string; start : int; stop : int; parent : int }

  let on = ref false
  let recorded : t list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []

  let open_ name =
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    (id, parent, name, now_ns ())

  let close_ (id, parent, name, start) =
    recorded := { id; name; start; stop = now_ns (); parent } :: !recorded

  (* a span around a call made outside the simulation: nests *)
  let run name f =
    if not !on then f ()
    else begin
      let s = open_ name in
      let (id, _, _, _) = s in
      stack := id :: !stack;
      let finish () =
        stack := List.tl !stack;
        close_ s
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  (* a span inside a fiber: parented, never stacked *)
  let leaf name f =
    if not !on then f ()
    else begin
      let s = open_ name in
      match f () with
      | v ->
        close_ s;
        v
      | exception e ->
        close_ s;
        raise e
    end

  let reset () =
    recorded := [];
    next_id := 0;
    stack := []

  let all () = List.rev !recorded

  (* Length of the union of [intervals], each (start, stop). *)
  let union_length intervals =
    let sorted = List.sort compare intervals in
    let rec go acc cur_s cur_e = function
      | [] -> acc + (cur_e - cur_s)
      | (s, e) :: rest ->
        if s > cur_e then go (acc + (cur_e - cur_s)) s e rest
        else go acc cur_s (max cur_e e) rest
    in
    match sorted with [] -> 0 | (s, e) :: rest -> go 0 s e rest

  (* (name, count, total ns, self ns): self time is a span's duration
     minus the part of it that its children cover. *)
  let summary () =
    let spans = all () in
    let children = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            ((s.start, s.stop)
            :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
      spans;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let dur = s.stop - s.start in
        let covered =
          match Hashtbl.find_opt children s.id with
          | None -> 0
          | Some iv ->
            union_length
              (List.map (fun (a, b) -> (max a s.start, min b s.stop)) iv)
        in
        let c, tot, self =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name (c + 1, tot + dur, self + dur - covered))
      spans;
    Hashtbl.fold (fun n (c, t, s) acc -> (n, c, t, s) :: acc) by_name []
    |> List.sort compare

  (* Chrome trace-event JSON: complete ("X") events in microseconds. *)
  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    let t0 = match all () with [] -> 0 | s :: _ -> s.start in
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
          (if i = 0 then "" else ",")
          s.name
          (float_of_int (s.start - t0) /. 1e3)
          (float_of_int (s.stop - s.start) /. 1e3)
          s.id s.parent)
      (all ());
    output_string oc "]}\n";
    close_out oc
end

(* ---- per-layer counters -------------------------------------------------

   A snapshot reads every counter the layers expose on a set of hosts;
   the difference of two snapshots is what the operations between them
   did. Indices name the slots. *)

module Counts = struct
  let events = 0
  let rx_frames = 1
  let rx_unmatched = 2
  let ip_pkts = 3
  let udp_dgrams = 4
  let tcp_segs = 5
  let predict_hit = 6
  let predict_miss = 7
  let rexmt = 8
  let acks_delayed = 9
  let pool_fresh = 10
  let pool_hits = 11
  let pool_puts = 12
  let migrations = 13
  let nic_ring_stalls = 14
  let nic_busy = 15 (* protocol-stage busy ns x 100 *)
  let nic_capacity = 16 (* span ns x processing elements *)
  let size = 17

  type t = int array

  let zero () = Array.make size 0
  let add_into acc ~after ~before =
    Array.iteri (fun i v -> acc.(i) <- acc.(i) + v - before.(i)) after

  let stacks sys apps =
    let base =
      Option.to_list (System.kernel_stack sys)
      @ Option.to_list (Option.map Os_server.stack (System.server sys))
    in
    base @ List.filter_map Sockets.app_stack apps

  (* [hosts] pairs each system with the applications the benchmark made
     on it; [eng] is the engine they run on. *)
  let snapshot eng hosts =
    let c = zero () in
    let bump i v = c.(i) <- c.(i) + v in
    bump events (Psd_sim.Engine.events_scheduled eng);
    List.iter
      (fun (sys, apps) ->
        let nd = System.netdev sys in
        bump rx_frames (Psd_mach.Netdev.rx_frames nd);
        bump rx_unmatched (Psd_mach.Netdev.rx_unmatched nd);
        List.iter
          (fun (st : Psd_tcp.Tcp.stats) ->
            bump tcp_segs (st.segs_out + st.segs_in);
            bump predict_hit st.predict_hit;
            bump predict_miss st.predict_miss;
            bump rexmt st.rexmt_segs;
            bump acks_delayed st.acks_delayed)
          (System.stacks_tcp_stats sys);
        List.iter
          (fun (st : Psd_ip.Ip.stats) ->
            bump ip_pkts (st.ip_output + st.ip_delivered))
          (System.stacks_ip_stats sys);
        List.iter
          (fun ns ->
            let u = Psd_udp.Udp.stats (Netstack.udp ns) in
            bump udp_dgrams (u.udp_out + u.udp_in);
            let f, h, p, _ = Psd_tcp.Tcp.pool_stats (Netstack.tcp ns) in
            bump pool_fresh f;
            bump pool_hits h;
            bump pool_puts p)
          (stacks sys apps);
        Option.iter
          (fun srv -> bump migrations (Os_server.migrations srv))
          (System.server sys);
        Option.iter
          (fun pipe ->
            let pes = (Psd_mach.Nicpipe.profile pipe).Psd_cost.Platform.pes in
            bump nic_ring_stalls
              (List.assoc "ring stalls" (Psd_mach.Nicpipe.counters pipe));
            bump nic_busy
              (Psd_mach.Nicpipe.proto_occupancy_pct pipe
              * Psd_mach.Nicpipe.span_ns pipe * pes);
            bump nic_capacity (Psd_mach.Nicpipe.span_ns pipe * pes))
          (System.nic_pipe sys))
      hosts;
    c

  (* Every stack's pool ledger balances and, with [pcbs], its PCB table
     is empty. *)
  let drained ?(pcbs = true) hosts =
    List.for_all
      (fun (sys, apps) ->
        List.for_all
          (fun ns ->
            let tcp = Netstack.tcp ns in
            let _, h, p, free = Psd_tcp.Tcp.pool_stats tcp in
            ((not pcbs) || Psd_tcp.Tcp.active_pcbs tcp = 0) && free = p - h)
          (stacks sys apps))
      hosts
end

(* ---- global copy and GC ledgers --------------------------------------- *)

(* (wire frames, wire bytes, rx body copies, tx body copies, bytes moved
   by every copy site except the wire and the NEWAPI loan/owned sites,
   which move none) *)
let copies_snapshot () =
  let open Psd_util.Copies in
  ( copies Wire,
    bytes Wire,
    rx_datapath_copies (),
    tx_datapath_copies (),
    List.fold_left
      (fun acc s ->
        match s with Wire | Rx_loan | Tx_owned -> acc | _ -> acc + bytes s)
      0 all_sites )

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_collections)

(* ---- the cost model's phases (Table 4) -------------------------------- *)

let phase_name : Psd_cost.Phase.t -> string = function
  | Entry_copyin -> "Entry_copyin"
  | Proto_output -> "Proto_output"
  | Ip_output -> "Ip_output"
  | Ether_output -> "Ether_output"
  | Device_intr -> "Device_intr"
  | Netisr_filter -> "Netisr_filter"
  | Kernel_copyout -> "Kernel_copyout"
  | Mbuf_queue -> "Mbuf_queue"
  | Ip_intr -> "Ip_intr"
  | Proto_input -> "Proto_input"
  | Wakeup -> "Wakeup"
  | Copyout_exit -> "Copyout_exit"
  | Wire -> "Wire"
  | Control -> "Control"
  | Desc_crossing -> "Desc_crossing"

(* ---- JSON -------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec json_to_buf b = function
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "%S: " k);
        json_to_buf b v)
      kvs;
    Buffer.add_char b '}'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        json_to_buf b v)
      vs;
    Buffer.add_char b ']'

let json_to_string j =
  let b = Buffer.create 256 in
  json_to_buf b j;
  Buffer.contents b

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
