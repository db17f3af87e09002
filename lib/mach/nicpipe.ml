open Psd_cost

type dir = Tx | Rx

type t = {
  eng : Psd_sim.Engine.t;
  prof : Platform.nic;
  (* analytic stage-occupancy clocks, all in absolute virtual time *)
  mutable pre_free : int;
  pe_free : int array;
  mutable post_free : int;
  (* bounded descriptor ring: completion time of the admission that used
     each slot; a new segment may not start before the slot it reuses
     (ring_slots admissions ago) has completed *)
  ring : int array;
  mutable ring_head : int;
  (* counters *)
  mutable tx_segs : int;
  mutable rx_segs : int;
  mutable doorbells : int;
  mutable completions : int;
  mutable ring_stalls : int;
  mutable ring_stall_ns : int;
  mutable pre_stall_ns : int;
  mutable proto_stall_ns : int;
  mutable post_stall_ns : int;
  mutable busy_pre_ns : int;
  mutable busy_proto_ns : int;
  mutable busy_post_ns : int;
  mutable first_admit_ns : int;
  mutable last_done_ns : int;
}

let create eng (prof : Platform.nic) =
  if prof.Platform.pes < 1 then invalid_arg "Nicpipe.create: pes < 1";
  if prof.Platform.ring_slots < 1 then
    invalid_arg "Nicpipe.create: ring_slots < 1";
  {
    eng;
    prof;
    pre_free = 0;
    pe_free = Array.make prof.Platform.pes 0;
    post_free = 0;
    ring = Array.make prof.Platform.ring_slots 0;
    ring_head = 0;
    tx_segs = 0;
    rx_segs = 0;
    doorbells = 0;
    completions = 0;
    ring_stalls = 0;
    ring_stall_ns = 0;
    pre_stall_ns = 0;
    proto_stall_ns = 0;
    post_stall_ns = 0;
    busy_pre_ns = 0;
    busy_proto_ns = 0;
    busy_post_ns = 0;
    first_admit_ns = -1;
    last_done_ns = 0;
  }

let profile t = t.prof

(* Admit one segment into the three-stage pipeline and return the
   absolute virtual time its post-order stage (including DMA) completes.

   Determinism: everything is computed analytically at admission time
   from the stage clocks, so the result depends only on the admission
   order, which is the engine's deterministic event order.  The protocol
   stage picks the earliest-free processing element, breaking ties by
   lowest index (the rule DESIGN.md section 16 documents).  Pre-order and
   post-order are serialised; because [post_free] is monotone in
   admission order, completions leave in admission (FIFO) order even
   when a short segment overtakes a long one inside the protocol
   stage. *)
let admit t ~dir ~len =
  let now = Psd_sim.Engine.now t.eng in
  if t.first_admit_ns < 0 then t.first_admit_ns <- now;
  let p = t.prof in
  (* bounded descriptor ring back-pressure *)
  let slot_free = t.ring.(t.ring_head) in
  let start0 = Int.max now slot_free in
  if start0 > now then begin
    t.ring_stalls <- t.ring_stalls + 1;
    t.ring_stall_ns <- t.ring_stall_ns + (start0 - now)
  end;
  (* pre-order: parse/demux, serialised *)
  let pre_start = Int.max start0 t.pre_free in
  t.pre_stall_ns <- t.pre_stall_ns + (pre_start - start0);
  let pre_cost = p.Platform.pre_fixed + (len * p.Platform.pre_per_byte) in
  let pre_done = pre_start + pre_cost in
  t.pre_free <- pre_done;
  t.busy_pre_ns <- t.busy_pre_ns + pre_cost;
  (* protocol: earliest-free PE, lowest index on ties *)
  let best = ref 0 in
  for i = 1 to Array.length t.pe_free - 1 do
    if t.pe_free.(i) < t.pe_free.(!best) then best := i
  done;
  let proto_start = Int.max pre_done t.pe_free.(!best) in
  t.proto_stall_ns <- t.proto_stall_ns + (proto_start - pre_done);
  let proto_cost = p.Platform.proto_fixed + (len * p.Platform.proto_per_byte) in
  let proto_done = proto_start + proto_cost in
  t.pe_free.(!best) <- proto_done;
  t.busy_proto_ns <- t.busy_proto_ns + proto_cost;
  (* post-order: reorder point + DMA, serialised FIFO *)
  let post_start = Int.max proto_done t.post_free in
  t.post_stall_ns <- t.post_stall_ns + (post_start - proto_done);
  let post_cost =
    p.Platform.post_fixed
    + (len * (p.Platform.post_per_byte + p.Platform.dma_per_byte))
  in
  let post_done = post_start + post_cost in
  t.post_free <- post_done;
  t.busy_post_ns <- t.busy_post_ns + post_cost;
  t.ring.(t.ring_head) <- post_done;
  t.ring_head <- (t.ring_head + 1) mod Array.length t.ring;
  (match dir with
  | Tx -> t.tx_segs <- t.tx_segs + 1
  | Rx -> t.rx_segs <- t.rx_segs + 1);
  if post_done > t.last_done_ns then t.last_done_ns <- post_done;
  post_done

let admit_deliver t ~dir ~len k =
  let done_at = admit t ~dir ~len in
  Psd_sim.Engine.schedule_abs t.eng ~key:done_at (fun () -> k ())

let doorbell t = t.doorbells <- t.doorbells + 1

let completion t = t.completions <- t.completions + 1

let segs t = t.tx_segs + t.rx_segs

let doorbells t = t.doorbells

let completions t = t.completions

let span_ns t = if t.first_admit_ns < 0 then 0 else t.last_done_ns - t.first_admit_ns

(* Occupancy of the protocol-stage PE pool over the interval the pipeline
   was active, in percent. *)
let proto_occupancy_pct t =
  let span = span_ns t in
  if span <= 0 then 0
  else t.busy_proto_ns * 100 / (span * Array.length t.pe_free)

let counters t =
  [
    ("segs offloaded", segs t);
    ("tx segs", t.tx_segs);
    ("rx segs", t.rx_segs);
    ("doorbells", t.doorbells);
    ("completions", t.completions);
    ("ring stalls", t.ring_stalls);
    ("ring stall ns", t.ring_stall_ns);
    ("pre-order stall ns", t.pre_stall_ns);
    ("protocol stall ns", t.proto_stall_ns);
    ("post-order stall ns", t.post_stall_ns);
    ("pre-order busy ns", t.busy_pre_ns);
    ("protocol busy ns", t.busy_proto_ns);
    ("post-order busy ns", t.busy_post_ns);
    ("protocol occupancy %", proto_occupancy_pct t);
  ]
