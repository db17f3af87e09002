(* What one pass of a workload accumulates. One global instance: the
   benchmark runs one workload per process, one pass at a time. *)

open Common

type t = {
  lat : Samples.t;  (* wall ns of each timed op *)
  setup : Samples.t;  (* wall ns of each set-up, host-speed scaled *)
  setup_raw : Samples.t;  (* the same, unscaled *)
  mutable attempted : int;
  mutable failed : int;
  mutable payload : int;  (* application bytes delivered and verified *)
  mutable round_trips : int;
  mutable conns : int;
  mutable busy_ns : int;  (* wall of the timed sections *)
  mutable virtual_ns : int;  (* simulated time of the timed ops *)
  counts : Counts.t;  (* layer counters over the timed ops *)
  warm : Counts.t;  (* layer counters over set-up warm-up connections *)
  mutable warm_conns : int;
  mutable bytes_per_conn : float;  (* nan until sampled *)
  breakdown : Psd_cost.Breakdown.t;
  mutable breakdown_ops : int;
  mutable notes : string list;  (* first failure causes, newest first *)
}

let create () =
  {
    lat = Samples.create ();
    setup = Samples.create ();
    setup_raw = Samples.create ();
    attempted = 0;
    failed = 0;
    payload = 0;
    round_trips = 0;
    conns = 0;
    busy_ns = 0;
    virtual_ns = 0;
    counts = Counts.zero ();
    warm = Counts.zero ();
    warm_conns = 0;
    bytes_per_conn = nan;
    breakdown = Psd_cost.Breakdown.create ();
    breakdown_ops = 0;
    notes = [];
  }

let cur = ref (create ())

(* Attach the Table 4 breakdown to the rpc workload's round trips; set
   for the untraced pass of a traced run only. *)
let breakdown_round_trips = ref false

(* Scale set-up samples by a host-speed probe (untraced runs only: the
   probe's own allocation must not reach a traced run's counts). *)
let probing = ref true
let reset () = cur := create ()

let fail ?(ops = 1) why =
  let a = !cur in
  a.failed <- a.failed + ops;
  if List.length a.notes < 8 then a.notes <- why :: a.notes

(* Time [f] as part of the measured work. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  let a = !cur in
  a.busy_ns <- a.busy_ns + (now_ns () - t0);
  v

(* Time [f] as one set-up; [pause] reports wall spent on memory sampling
   inside it, which is left out. The sample is scaled by a host-speed
   probe taken right after it. *)
let setup f =
  let t0 = now_ns () in
  let paused = ref 0 in
  let pause g =
    let p0 = now_ns () in
    let v = g () in
    paused := !paused + (now_ns () - p0);
    v
  in
  let v = Span.run "setup" (fun () -> f pause) in
  let wall = now_ns () - t0 - !paused in
  let probe = if !probing then host_probe ~min_ns:0 else reference_nominal_ns in
  Samples.add !cur.setup_raw wall;
  Samples.add !cur.setup
    (int_of_float (float_of_int wall *. reference_nominal_ns /. probe));
  v

(* Live-heap words after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words
