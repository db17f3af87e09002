open Psd_mbuf
open Psd_cost

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let pp_state fmt s =
  let name =
    match s with
    | Closed -> "CLOSED"
    | Listen -> "LISTEN"
    | Syn_sent -> "SYN_SENT"
    | Syn_received -> "SYN_RCVD"
    | Established -> "ESTABLISHED"
    | Fin_wait_1 -> "FIN_WAIT_1"
    | Fin_wait_2 -> "FIN_WAIT_2"
    | Close_wait -> "CLOSE_WAIT"
    | Closing -> "CLOSING"
    | Last_ack -> "LAST_ACK"
    | Time_wait -> "TIME_WAIT"
  in
  Format.fprintf fmt "%s" name

type error = Refused | Reset | Timed_out

let pp_error fmt e =
  Format.fprintf fmt "%s"
    (match e with
    | Refused -> "connection refused"
    | Reset -> "connection reset by peer"
    | Timed_out -> "connection timed out")

type stats = {
  mutable segs_out : int;
  mutable bytes_out : int;
  mutable segs_in : int;
  mutable bytes_in : int;
  mutable rexmt_segs : int;
  mutable fast_rexmt : int;
  mutable dup_acks_in : int;
  mutable ooo_segs : int;
  mutable acks_delayed : int;
  mutable rst_out : int;
  mutable drop_checksum : int;
  mutable drop_malformed : int;
  mutable drop_no_pcb : int;
  mutable predict_hit : int;
  mutable predict_miss : int;
}

type conn_key = { lport : int; rip : Psd_ip.Addr.t; rport : int }

let key_equal a b = a.lport = b.lport && a.rip = b.rip && a.rport = b.rport

(* Demux tables hashed and compared field-wise on ints: the polymorphic
   [Hashtbl] walks the record through the C hash and compare on every
   segment. Nothing iterates these tables, so bucket order can never
   reach the output. *)
module Keytbl = Hashtbl.Make (struct
  type t = conn_key

  let equal = key_equal

  (* multiply-xorshift: bucket indices take the low bits, and the
     varying parts of a key (peer address, ephemeral port) differ
     mostly in theirs *)
  let hash k =
    let h =
      ((k.rip * 0x2545f4914f6cdd1d) lxor (k.lport lsl 16) lxor k.rport)
      * 0x1e3779b97f4a7c15
    in
    (h lxor (h lsr 31)) land max_int
end)

(* C1M compaction: the seed PCB spent ~360 bytes on 44 fields, nine of
   them one-word bools and two of them option-boxed pairs. The packed
   layout folds every boolean (and the five [tm_pending] bits) into one
   [flags] int, flattens [rtt_timing : (Seq.t * int) option] into two
   int fields with a [-1] "not timing" sentinel, and stores the FIN
   sequence as an int with the same sentinel. [gen] supports the PCB
   free list: it bumps on every reuse so timer fibers armed against a
   previous life of the record skip instead of acting on the wrong
   connection. [owner] is an upcall token for the socket layer (an exn
   used as a universal type) so one shared [handlers] record per stack
   can recover the socket from the pcb — the seed allocated six
   closures per connection instead. *)
type pcb = {
  mutable t : t; (* the stack the pcb lives in; [import] re-homes it *)
  mutable key : conn_key;
  mutable state : state;
  mutable handlers : handlers;
  mutable owner : exn;
  (* bits 0-4: [tm_pending] per timer slot; bits 5+: the former bools *)
  mutable flags : int;
  mutable gen : int;
  (* send side *)
  sndq : Mbuf.t;
  mutable data_base : Seq.t; (* sequence number of sndq head byte *)
  mutable snd_una : Seq.t;
  mutable snd_nxt : Seq.t;
  mutable snd_max : Seq.t;
  mutable snd_wnd : int;
  mutable snd_wl1 : Seq.t;
  mutable snd_wl2 : Seq.t;
  mutable iss : Seq.t;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  (* retransmission; [rtt_start < 0] = no segment being timed *)
  mutable srtt : int;
  mutable rttvar : int;
  mutable rto : int;
  mutable nrexmt : int;
  mutable rtt_seq : Seq.t;
  mutable rtt_start : int;
  (* Wheel-backed timer slots, indexed by [tm_rexmt .. tm_keep] through
     [tslot]; [flags] bit [slot] mirrors what the former per-slot
     [cancel option] field held ([Some _] = bit set). Five flat fields
     rather than an array: the array box cost 6 words on every PCB. *)
  tm0 : Psd_sim.Engine.timer;
  tm1 : Psd_sim.Engine.timer;
  tm2 : Psd_sim.Engine.timer;
  tm3 : Psd_sim.Engine.timer;
  tm4 : Psd_sim.Engine.timer;
  mutable last_activity : int;
  mutable keep_probes : int;
  (* receive side; [fin_rcvd < 0] = no FIN sequence pending *)
  mutable irs : Seq.t;
  mutable rcv_nxt : Seq.t;
  mutable rcv_buf : int;
  mutable rcv_buffered : int;
  mutable rcv_adv : Seq.t;
  mutable reass : (Seq.t * Mbuf.t) list; (* sorted by seq *)
  mutable fin_rcvd : Seq.t;
  mutable mss : int;
  (* buffered delivery before handlers are installed (pre-accept data) *)
  undelivered : Mbuf.t;
  mutable parent_listener : listener option;
}

and handlers = {
  deliver : pcb -> Mbuf.t -> unit;
  deliver_fin : pcb -> unit;
  on_established : pcb -> unit;
  on_acked : pcb -> int -> unit;
  on_error : pcb -> error -> unit;
  on_state : pcb -> state -> unit;
}

and listener = {
  (* accept queue and half-open count are both O(1) per event: the
     backlog check on each SYN must not scan the connection table, and
     accept must not rebuild a list *)
  l_port : int;
  l_backlog : int;
  l_queue : pcb Queue.t;
  mutable l_half_open : int; (* children in [Syn_received] pointing here *)
  mutable l_ready_cb : unit -> unit;
  mutable l_closed : bool;
}

and t = {
  ctx : Ctx.t;
  ip : Psd_ip.Ip.t;
  lock : Psd_sim.Lock.t;
  default_mss : int;
  msl_ns : int;
  rto_min_ns : int;
  rto_max_ns : int;
  rto_init_ns : int;
  delack_ns : int;
  keep_idle_ns : int;
  keep_interval_ns : int;
  keep_max_probes : int;
  default_rcv_buf : int;
  conns : pcb Keytbl.t;
  (* one-entry demux memo: steady-state traffic is dominated by one
     connection, so remember the last pcb matched on input and skip the
     tuple-key hash. Invalidated on any [conns] removal. *)
  mutable memo : pcb option;
  listeners : (int, listener) Hashtbl.t;
  muted : int Keytbl.t; (* key -> expiry; migration quench *)
  (* maintained-count hook: called with +1/-1 as connections enter and
     leave [conns], so callers tracking populations over many stacks
     (the scale workloads) read a counter instead of walking stacks —
     per-tick stats stay O(1) in the connection count *)
  mutable conn_gauge : (int -> unit) option;
  (* PCB free list: dropped connections park here (up to [pool_cap])
     and [make_pcb] reuses them, so connect/close churn re-initialises
     one record instead of allocating a 40-word block + timer bank.
     [pool_cap = 0] disables pooling (the differential suite runs the
     same schedules pooled and unpooled and demands identical output). *)
  pool_cap : int;
  mutable pool : pcb list;
  mutable pool_free : int;
  mutable pool_fresh : int; (* PCBs built from scratch *)
  mutable pool_hits : int; (* PCBs served from the free list *)
  mutable pool_puts : int; (* PCBs returned to the free list *)
  st : stats;
}

exception No_owner

(* retransmissions of one segment before the connection is dropped *)
let max_rexmt = 12

let null_handlers =
  {
    deliver = (fun _ _ -> ());
    deliver_fin = (fun _ -> ());
    on_established = (fun _ -> ());
    on_acked = (fun _ _ -> ());
    on_error = (fun _ _ -> ());
    on_state = (fun _ _ -> ());
  }

(* --- packed pcb flags --------------------------------------------- *)

let f_handlers_set = 1 lsl 5
let f_dead = 1 lsl 6
let f_fin_wanted = 1 lsl 7
let f_fin_sent = 1 lsl 8
let f_nodelay = 1 lsl 9
let f_keepalive = 1 lsl 10
let f_ack_now = 1 lsl 11
let f_delack_pending = 1 lsl 12
let f_fin_undelivered = 1 lsl 13
let f_pooled = 1 lsl 14

let[@inline] flag pcb bit = pcb.flags land bit <> 0

let[@inline] set_flag pcb bit v =
  if v then pcb.flags <- pcb.flags lor bit
  else pcb.flags <- pcb.flags land lnot bit

let[@inline] dead pcb = flag pcb f_dead

let[@inline] ack_now pcb = flag pcb f_ack_now

let[@inline] delack_pending pcb = flag pcb f_delack_pending

let[@inline] fin_wanted pcb = flag pcb f_fin_wanted

let[@inline] fin_sent pcb = flag pcb f_fin_sent

let stats t = t.st

let pool_stats t = (t.pool_fresh, t.pool_hits, t.pool_puts, t.pool_free)

let set_conn_gauge t g = t.conn_gauge <- Some g

(* The two [conns] mutation helpers keep the gauge exact even if a
   caller double-removes: the delta is derived from table membership. *)
let conns_insert t key pcb =
  let fresh = not (Keytbl.mem t.conns key) in
  Keytbl.replace t.conns key pcb;
  if fresh then match t.conn_gauge with Some g -> g 1 | None -> ()

let conns_remove t key =
  if Keytbl.mem t.conns key then begin
    Keytbl.remove t.conns key;
    match t.conn_gauge with Some g -> g (-1) | None -> ()
  end

let active_pcbs t = Keytbl.length t.conns

let state pcb = pcb.state

let sndq_length pcb = Mbuf.length pcb.sndq

let rcv_buffered pcb = pcb.rcv_buffered

let local_port pcb = pcb.key.lport

let remote pcb = (pcb.key.rip, pcb.key.rport)

let set_nodelay pcb v = set_flag pcb f_nodelay v

(* The socket layer's upcall token: one shared [handlers] record per
   stack recovers its per-connection state from here instead of closing
   over it six times per connection. An exn is OCaml's lightest
   universal type; [No_owner] is the empty default. *)
let set_owner pcb e = pcb.owner <- e

let owner pcb = pcb.owner

(* ----------------------------------------------------------------- *)
(* helpers                                                            *)

let set_state pcb s =
  if pcb.state <> s then begin
    pcb.state <- s;
    pcb.handlers.on_state pcb s
  end

let eng t = t.ctx.Ctx.eng

(* ----------------------------------------------------------------- *)
(* timer slots

   The five per-PCB timers share one wheel-backed slot mechanism:
   [set_timer] arms slot [i] (cancelling any previous arm) to run its
   body in a fresh fiber under the instance lock — the exact shape of
   the five hand-rolled blocks it replaced, each a cancel token for a
   heap entry plus a [spawn].

   [tm_pending] deliberately tracks the *protocol's* view of each slot
   rather than the wheel node's linked state: the old code cleared the
   [cancel option] field at the top of the fire body (inside the lock),
   leaving a window between pop and body in which a concurrent re-arm
   installs a fresh token that the body's clear then discards without
   cancelling. Each fire body clears its bit at the same point the old
   code assigned [None], so that window — and every spurious re-fire it
   allows — is reproduced bit-for-bit. *)

let tm_rexmt = 0
let tm_persist = 1
let tm_delack = 2
let tm_msl = 3
let tm_keep = 4
let tm_count = 5

let tm_names =
  [| "tcp-rexmt"; "tcp-persist"; "tcp-delack"; "tcp-2msl"; "tcp-keep" |]

let[@inline] tslot pcb = function
  | 0 -> pcb.tm0
  | 1 -> pcb.tm1
  | 2 -> pcb.tm2
  | 3 -> pcb.tm3
  | _ -> pcb.tm4

let timer_pending pcb slot = pcb.flags land (1 lsl slot) <> 0

let clear_pending pcb slot = pcb.flags <- pcb.flags land lnot (1 lsl slot)

let stop_timer t pcb slot =
  clear_pending pcb slot;
  Psd_sim.Engine.timer_cancel (eng t) (tslot pcb slot)

(* The fire fiber latches [pcb.gen]: a pooled pcb may be recycled into
   a different connection between the wheel pop and the fiber running
   (both can happen in the same instant), and the generation check
   makes the body a no-op exactly where the unpooled code's
   [not pcb.dead] checks would have made it one — the dropped
   connection the timer belonged to no longer exists either way. *)
let set_timer t pcb slot dt body =
  pcb.flags <- pcb.flags lor (1 lsl slot);
  let g = pcb.gen in
  Psd_sim.Engine.timer_arm (eng t) (tslot pcb slot) dt (fun () ->
      Psd_sim.Engine.spawn (eng t) ~name:tm_names.(slot) (fun () ->
          Psd_sim.Lock.with_lock t.lock (fun () ->
              if pcb.gen = g then body ())))

let fin_seq pcb = Seq.add pcb.data_base (Mbuf.length pcb.sndq)

(* Advertised receive window: never shrink an advertisement. *)
let rcv_window pcb =
  let space = Int.max 0 (pcb.rcv_buf - pcb.rcv_buffered) in
  let space = Int.min space 65535 in
  let already = Int.max 0 (Seq.diff pcb.rcv_adv pcb.rcv_nxt) in
  Int.max space already

let charge_segment_out t len =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Proto_output
    (plat.Platform.tcp_fixed + (2 * t.ctx.Ctx.sync_ns)
    + (plat.Platform.checksum_per_byte * (Segment.base_size + len))
    + plat.Platform.mbuf_alloc)

let charge_segment_in t len =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Proto_input
    (plat.Platform.tcp_fixed + (2 * t.ctx.Ctx.sync_ns)
    + (plat.Platform.checksum_per_byte * (Segment.base_size + len))
    + plat.Platform.mbuf_op)

(* Transmit one segment. [payload] is consumed (header prepended). *)
let emit t ~src_port ~dst ~dst_port ~seq ~ack ~flags ~window ~mss_opt payload
    =
  let len = Mbuf.length payload in
  charge_segment_out t len;
  t.st.segs_out <- t.st.segs_out + 1;
  let seg =
    {
      Segment.src_port;
      dst_port;
      seq;
      ack;
      flags;
      window;
      mss = mss_opt;
    }
  in
  let packet =
    Segment.encode seg ~src:(Psd_ip.Ip.addr t.ip) ~dst ~payload
  in
  match
    Psd_ip.Ip.output t.ip ~proto:Psd_ip.Header.proto_tcp ~dst packet
  with
  | Ok () -> ()
  | Error _ -> () (* routing failures surface as retransmission timeouts *)

let ack_flags = { Segment.no_flags with Segment.ack = true }

let send_ack t pcb =
  set_flag pcb f_ack_now false;
  set_flag pcb f_delack_pending false;
  let window = rcv_window pcb in
  pcb.rcv_adv <- Seq.max pcb.rcv_adv (Seq.add pcb.rcv_nxt window);
  emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip ~dst_port:pcb.key.rport
    ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags:ack_flags ~window ~mss_opt:None
    (Mbuf.empty ())

(* The active opener's SYN: first transmission and retransmission. *)
let send_syn t pcb =
  let flags = { Segment.no_flags with Segment.syn = true } in
  emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip ~dst_port:pcb.key.rport
    ~seq:pcb.iss ~ack:0 ~flags ~window:(rcv_window pcb)
    ~mss_opt:(Some t.default_mss) (Mbuf.empty ())

(* The SYN-ACK: to a listener's SYN, in a simultaneous open, and on
   retransmission. *)
let send_syn_ack t pcb =
  let flags = { Segment.no_flags with Segment.syn = true; ack = true } in
  let window = rcv_window pcb in
  pcb.rcv_adv <- Seq.max pcb.rcv_adv (Seq.add pcb.rcv_nxt window);
  emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip ~dst_port:pcb.key.rport
    ~seq:pcb.iss ~ack:pcb.rcv_nxt ~flags ~window
    ~mss_opt:(Some t.default_mss) (Mbuf.empty ())

(* Reply RST to a segment that has no (usable) connection. *)
let send_rst_for t (seg : Segment.t) ~data_len ~to_ip =
  if not seg.Segment.flags.Segment.rst then begin
    t.st.rst_out <- t.st.rst_out + 1;
    let flags = { Segment.no_flags with Segment.rst = true; ack = true } in
    if seg.Segment.flags.Segment.ack then
      emit t ~src_port:seg.Segment.dst_port ~dst:to_ip
        ~dst_port:seg.Segment.src_port ~seq:seg.Segment.ack ~ack:0
        ~flags:{ flags with Segment.ack = false }
        ~window:0 ~mss_opt:None (Mbuf.empty ())
    else begin
      let advance =
        data_len
        + (if seg.Segment.flags.Segment.syn then 1 else 0)
        + if seg.Segment.flags.Segment.fin then 1 else 0
      in
      emit t ~src_port:seg.Segment.dst_port ~dst:to_ip
        ~dst_port:seg.Segment.src_port ~seq:0
        ~ack:(Seq.add seg.Segment.seq advance)
        ~flags ~window:0 ~mss_opt:None (Mbuf.empty ())
    end
  end

let deliver_data pcb m =
  if flag pcb f_handlers_set then pcb.handlers.deliver pcb m
  else Mbuf.concat pcb.undelivered m

let deliver_fin pcb =
  if flag pcb f_handlers_set then pcb.handlers.deliver_fin pcb
  else set_flag pcb f_fin_undelivered true

(* A pcb leaving the connection table (or completing the handshake)
   while still attached to its listener comes off that listener's
   half-open count — the counter tracks exactly the pcbs the old code
   found by folding over [t.conns] on every SYN. *)
let detach_listener pcb =
  match pcb.parent_listener with
  | Some l ->
    pcb.parent_listener <- None;
    l.l_half_open <- l.l_half_open - 1
  | None -> ()

(* Park a dropped pcb on the free list (bounded by [pool_cap]) after
   scrubbing every reference it holds, so a parked record pins neither
   user data nor callbacks. The [f_dead]/[f_pooled] flags stay set
   until [reset_pcb] wipes them on reuse, keeping late timer fibers and
   stale user calls on the dead paths they would take without pooling.
   [export] never comes through here: an exported pcb is the snapshot
   in transit, and the importing stack pools it when it drops it. *)
let recycle t pcb =
  if t.pool_cap > 0 && (not (flag pcb f_pooled)) && t.pool_free < t.pool_cap
  then begin
    set_flag pcb f_pooled true;
    pcb.handlers <- null_handlers;
    pcb.owner <- No_owner;
    let n = Mbuf.length pcb.sndq in
    if n > 0 then Mbuf.drop_front pcb.sndq n;
    let n = Mbuf.length pcb.undelivered in
    if n > 0 then Mbuf.drop_front pcb.undelivered n;
    pcb.reass <- [];
    pcb.parent_listener <- None;
    t.pool <- pcb :: t.pool;
    t.pool_free <- t.pool_free + 1;
    t.pool_puts <- t.pool_puts + 1
  end

(* Take a pcb out of service: dead to late timer fibers and user calls,
   off its listener's half-open count, every timer stopped, and out of
   the demux tables. *)
let unlink t pcb =
  set_flag pcb f_dead true;
  detach_listener pcb;
  for slot = 0 to tm_count - 1 do
    stop_timer t pcb slot
  done;
  t.memo <- None;
  conns_remove t pcb.key

let drop_pcb t pcb err =
  unlink t pcb;
  set_state pcb Closed;
  (match err with Some e -> pcb.handlers.on_error pcb e | None -> ());
  recycle t pcb

(* ----------------------------------------------------------------- *)
(* retransmission timers                                              *)

let update_rtt t pcb measured =
  pcb.nrexmt <- 0;
  if pcb.srtt = 0 then begin
    pcb.srtt <- measured;
    pcb.rttvar <- measured / 2
  end
  else begin
    let err = measured - pcb.srtt in
    pcb.srtt <- pcb.srtt + (err / 8);
    pcb.rttvar <- pcb.rttvar + ((abs err - pcb.rttvar) / 4)
  end;
  pcb.rto <-
    Int.min t.rto_max_ns (Int.max t.rto_min_ns (pcb.srtt + (4 * pcb.rttvar)))

let rec arm_rexmt t pcb =
  set_timer t pcb tm_rexmt pcb.rto (fun () ->
      if not (dead pcb) then rexmt_fire t pcb)

and rexmt_fire t pcb =
  clear_pending pcb tm_rexmt;
  pcb.nrexmt <- pcb.nrexmt + 1;
  if pcb.nrexmt > max_rexmt then begin
    (match pcb.state with
    | Syn_sent -> drop_pcb t pcb (Some Refused)
    | _ -> drop_pcb t pcb (Some Timed_out))
  end
  else begin
    t.st.rexmt_segs <- t.st.rexmt_segs + 1;
    pcb.rto <- Int.min t.rto_max_ns (pcb.rto * 2);
    (* Karn: do not time retransmitted sequence numbers. *)
    pcb.rtt_start <- -1;
    match pcb.state with
    | Syn_sent ->
      send_syn t pcb;
      arm_rexmt t pcb
    | Syn_received ->
      send_syn_ack t pcb;
      arm_rexmt t pcb
    | _ ->
      (* congestion response: back to slow start *)
      let inflight = Int.max pcb.mss (Seq.diff pcb.snd_max pcb.snd_una) in
      pcb.ssthresh <- Int.max (2 * pcb.mss) (Int.min inflight pcb.snd_wnd / 2);
      pcb.cwnd <- pcb.mss;
      pcb.dup_acks <- 0;
      pcb.snd_nxt <- pcb.snd_una;
      output t pcb ~force:true
  end

and arm_persist t pcb =
  if not (timer_pending pcb tm_persist) then
    set_timer t pcb tm_persist pcb.rto (fun () ->
        if not (dead pcb) then begin
          clear_pending pcb tm_persist;
          pcb.rto <- Int.min t.rto_max_ns (pcb.rto * 2);
          output t pcb ~force:true;
          if pcb.snd_wnd = 0 && Mbuf.length pcb.sndq > 0 then
            arm_persist t pcb
        end)

and arm_delack t pcb =
  if not (timer_pending pcb tm_delack) then
    set_timer t pcb tm_delack t.delack_ns (fun () ->
        clear_pending pcb tm_delack;
        if (not (dead pcb)) && (delack_pending pcb) then begin
          t.st.acks_delayed <- t.st.acks_delayed + 1;
          send_ack t pcb
        end)

and arm_keepalive t pcb =
  set_timer t pcb tm_keep t.keep_interval_ns (fun () ->
      if (not (dead pcb)) && flag pcb f_keepalive && pcb.state = Established then begin
        let idle = Psd_sim.Engine.now (eng t) - pcb.last_activity in
        if idle >= t.keep_idle_ns then begin
          pcb.keep_probes <- pcb.keep_probes + 1;
          if pcb.keep_probes > t.keep_max_probes then
            drop_pcb t pcb (Some Timed_out)
          else begin
            (* garbage-sequence probe: elicits a bare ACK *)
            emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip
              ~dst_port:pcb.key.rport ~seq:(Seq.sub pcb.snd_una 1)
              ~ack:pcb.rcv_nxt ~flags:ack_flags ~window:(rcv_window pcb)
              ~mss_opt:None (Mbuf.empty ());
            arm_keepalive t pcb
          end
        end
        else begin
          pcb.keep_probes <- 0;
          arm_keepalive t pcb
        end
      end)

and arm_msl t pcb =
  set_timer t pcb tm_msl (2 * t.msl_ns) (fun () ->
      if not (dead pcb) then drop_pcb t pcb None)

(* ----------------------------------------------------------------- *)
(* output engine                                                      *)

and output t pcb ~force =
  match pcb.state with
  | Closed | Listen | Syn_sent | Syn_received | Time_wait -> ()
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
    ->
    let continue = ref true in
    while !continue do
      continue := false;
      let sndq_len = Mbuf.length pcb.sndq in
      let off = Seq.diff pcb.snd_nxt pcb.data_base in
      if off < 0 then () (* snd_nxt points at SYN/FIN space; nothing to do *)
      else begin
        let wnd = Int.min pcb.snd_wnd pcb.cwnd in
        let wnd = if force && wnd = 0 then 1 else wnd in
        let in_flight = Seq.diff pcb.snd_nxt pcb.snd_una in
        let usable = Int.max 0 (wnd - in_flight) in
        let remaining = Int.max 0 (sndq_len - off) in
        let len = Int.min (Int.min remaining usable) pcb.mss in
        let all_sent_after = len = remaining in
        let fin_to_send =
          (* also true when retransmitting a FIN already sent once:
             snd_nxt was pulled back to (or before) the FIN's sequence *)
          (fin_wanted pcb) && all_sent_after
          && ((not (fin_sent pcb)) || Seq.leq pcb.snd_nxt (fin_seq pcb))
        in
        let idle = Seq.diff pcb.snd_max pcb.snd_una = 0 in
        let should_send_data =
          len > 0
          && (len = pcb.mss
             || (all_sent_after && (flag pcb f_nodelay || idle))
             || (pcb.snd_wnd > 0 && len >= pcb.snd_wnd / 2)
             || force)
        in
        if should_send_data || (fin_to_send && usable >= 0) then begin
          let payload =
            if len > 0 then
              (* data must survive on the send queue until acked, but
                 the wire does not need its own bytes: a shared view of
                 the queued range is enough (both sides are immutable
                 until the ack drops the range), so first transmission
                 and retransmission alike emit without a [Tx_retain]
                 copy. The single physical copy happens at the frame
                 gather ([Tx_frame]). *)
              Mbuf.sub_view pcb.sndq ~off ~len
            else Mbuf.empty ()
          in
          let flags =
            {
              Segment.no_flags with
              Segment.ack = true;
              psh = (len > 0 && all_sent_after);
              fin = fin_to_send;
            }
          in
          let window = rcv_window pcb in
          pcb.rcv_adv <- Seq.max pcb.rcv_adv (Seq.add pcb.rcv_nxt window);
          set_flag pcb f_ack_now false;
          set_flag pcb f_delack_pending false;
          let seq = pcb.snd_nxt in
          let is_rexmt = Seq.lt seq pcb.snd_max in
          if is_rexmt then t.st.rexmt_segs <- t.st.rexmt_segs + 1
          else t.st.bytes_out <- t.st.bytes_out + len;
          emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip
            ~dst_port:pcb.key.rport ~seq ~ack:pcb.rcv_nxt ~flags ~window
            ~mss_opt:None payload;
          if fin_to_send then begin
            set_flag pcb f_fin_sent true;
            (match pcb.state with
            | Established -> set_state pcb Fin_wait_1
            | Close_wait -> set_state pcb Last_ack
            | _ -> ())
          end;
          pcb.snd_nxt <- Seq.add pcb.snd_nxt (len + if fin_to_send then 1 else 0);
          if Seq.gt pcb.snd_nxt pcb.snd_max then begin
            (* time this transmission if nothing is being timed *)
            if pcb.rtt_start < 0 && len > 0 && not is_rexmt then begin
              pcb.rtt_seq <- seq;
              pcb.rtt_start <- Psd_sim.Engine.now (eng t)
            end;
            pcb.snd_max <- pcb.snd_nxt
          end;
          if (not (timer_pending pcb tm_rexmt)) && (len > 0 || fin_to_send)
          then
            arm_rexmt t pcb;
          (* keep sending while full-size segments fit in the window *)
          if len = pcb.mss && not force then continue := true
        end
        else if
          remaining > 0 && pcb.snd_wnd = 0
          && not (timer_pending pcb tm_rexmt)
        then arm_persist t pcb
      end
    done;
    if (ack_now pcb) then send_ack t pcb

(* ----------------------------------------------------------------- *)
(* construction                                                       *)

(* The fields a pcb starts each life in a stack with: [reset_pcb] sets
   them on reuse from the pool, and [import] on arrival from another
   stack (the state a migration carries is everything else). *)
let reset_life pcb =
  pcb.dup_acks <- 0;
  pcb.nrexmt <- 0;
  pcb.rtt_seq <- 0;
  pcb.rtt_start <- -1;
  pcb.last_activity <- 0;
  pcb.keep_probes <- 0

(* Reinitialise a pooled pcb to exactly the state a fresh literal would
   have — every mutable field, no exceptions. [gen] bumps so timer
   fibers armed against the record's previous life skip their bodies. *)
let reset_pcb t pcb ~key ~state ~handlers ~rcv_buf ~mss =
  pcb.gen <- pcb.gen + 1;
  pcb.key <- key;
  pcb.state <- state;
  pcb.handlers <- handlers;
  pcb.owner <- No_owner;
  pcb.flags <- 0;
  pcb.data_base <- 0;
  pcb.snd_una <- 0;
  pcb.snd_nxt <- 0;
  pcb.snd_max <- 0;
  pcb.snd_wnd <- 0;
  pcb.snd_wl1 <- 0;
  pcb.snd_wl2 <- 0;
  pcb.iss <- 0;
  pcb.cwnd <- mss;
  pcb.ssthresh <- 65535;
  pcb.srtt <- 0;
  pcb.rttvar <- 0;
  pcb.rto <- t.rto_init_ns;
  reset_life pcb;
  pcb.irs <- 0;
  pcb.rcv_nxt <- 0;
  pcb.rcv_buf <- rcv_buf;
  pcb.rcv_buffered <- 0;
  pcb.rcv_adv <- 0;
  pcb.reass <- [];
  pcb.fin_rcvd <- -1;
  pcb.mss <- mss;
  pcb.parent_listener <- None

let make_pcb t ~key ~state ~handlers ~rcv_buf ~mss =
  match t.pool with
  | pcb :: rest ->
    t.pool <- rest;
    t.pool_free <- t.pool_free - 1;
    t.pool_hits <- t.pool_hits + 1;
    reset_pcb t pcb ~key ~state ~handlers ~rcv_buf ~mss;
    pcb
  | [] ->
    t.pool_fresh <- t.pool_fresh + 1;
    {
      t;
      key;
      state;
      handlers;
      owner = No_owner;
      flags = 0;
      gen = 0;
      sndq = Mbuf.empty ();
      data_base = 0;
      snd_una = 0;
      snd_nxt = 0;
      snd_max = 0;
      snd_wnd = 0;
      snd_wl1 = 0;
      snd_wl2 = 0;
      iss = 0;
      cwnd = mss;
      ssthresh = 65535;
      dup_acks = 0;
      srtt = 0;
      rttvar = 0;
      rto = t.rto_init_ns;
      nrexmt = 0;
      rtt_seq = 0;
      rtt_start = -1;
      tm0 = Psd_sim.Engine.timer ();
      tm1 = Psd_sim.Engine.timer ();
      tm2 = Psd_sim.Engine.timer ();
      tm3 = Psd_sim.Engine.timer ();
      tm4 = Psd_sim.Engine.timer ();
      last_activity = 0;
      keep_probes = 0;
      irs = 0;
      rcv_nxt = 0;
      rcv_buf;
      rcv_buffered = 0;
      rcv_adv = 0;
      reass = [];
      fin_rcvd = -1;
      mss;
      undelivered = Mbuf.empty ();
      parent_listener = None;
    }

let fresh_iss t =
  Int32.to_int (Psd_util.Rng.int32 (Psd_sim.Engine.rng (eng t)))
  land 0xffffffff

(* ----------------------------------------------------------------- *)
(* input engine                                                       *)

let establish pcb =
  set_state pcb Established;
  pcb.handlers.on_established pcb;
  match pcb.parent_listener with
  | Some l when not l.l_closed ->
    detach_listener pcb;
    Queue.add pcb l.l_queue;
    l.l_ready_cb ()
  | Some _ -> detach_listener pcb
  | None -> ()

(* Splice the reassembly queue: deliver everything now contiguous. *)
let splice t pcb =
  let rec go () =
    match pcb.reass with
    | (seq, m) :: rest when Seq.leq seq pcb.rcv_nxt ->
      let m_len = Mbuf.length m in
      let dup = Seq.diff pcb.rcv_nxt seq in
      if dup >= m_len then begin
        pcb.reass <- rest;
        go ()
      end
      else begin
        if dup > 0 then Mbuf.trim_front m dup;
        pcb.reass <- rest;
        let len = Mbuf.length m in
        pcb.rcv_nxt <- Seq.add pcb.rcv_nxt len;
        pcb.rcv_buffered <- pcb.rcv_buffered + len;
        t.st.bytes_in <- t.st.bytes_in + len;
        deliver_data pcb m;
        go ()
      end
    | _ -> ()
  in
  go ()

let insert_reass t pcb seq m =
  if Mbuf.length m > 0 then begin
    t.st.ooo_segs <- t.st.ooo_segs + 1;
    let rec ins = function
      | [] -> [ (seq, m) ]
      | (s, m') :: rest as l ->
        if Seq.lt seq s then (seq, m) :: l else (s, m') :: ins rest
    in
    pcb.reass <- ins pcb.reass
  end

let process_fin_if_ready t pcb =
  let fs = pcb.fin_rcvd in
  if fs >= 0 && Seq.geq pcb.rcv_nxt fs && pcb.reass = [] then begin
    pcb.fin_rcvd <- -1;
    pcb.rcv_nxt <- Seq.add fs 1;
    set_flag pcb f_ack_now true;
    deliver_fin pcb;
    (match pcb.state with
    | Established -> set_state pcb Close_wait
    | Fin_wait_1 ->
      (* our FIN not yet acked: simultaneous close *)
      set_state pcb Closing
    | Fin_wait_2 ->
      set_state pcb Time_wait;
      arm_msl t pcb
    | Time_wait -> arm_msl t pcb
    | _ -> ())
  end

let handle_listener t (l : listener) (seg : Segment.t) ~from_ip =
  if seg.Segment.flags.Segment.rst then ()
  else if seg.Segment.flags.Segment.ack then
    send_rst_for t seg ~data_len:0 ~to_ip:from_ip
  else if seg.Segment.flags.Segment.syn then begin
    (* half-open children count against the backlog too *)
    if l.l_half_open + Queue.length l.l_queue >= l.l_backlog then ()
    (* drop: queue full *)
    else begin
      let key =
        { lport = l.l_port; rip = from_ip; rport = seg.Segment.src_port }
      in
      let mss =
        match seg.Segment.mss with
        | Some m -> Int.min m t.default_mss
        | None -> Int.min 536 t.default_mss
      in
      let pcb =
        make_pcb t ~key ~state:Syn_received ~handlers:null_handlers
          ~rcv_buf:t.default_rcv_buf ~mss
      in
      pcb.iss <- fresh_iss t;
      pcb.snd_una <- pcb.iss;
      pcb.snd_nxt <- Seq.add pcb.iss 1;
      pcb.snd_max <- pcb.snd_nxt;
      pcb.data_base <- Seq.add pcb.iss 1;
      pcb.irs <- seg.Segment.seq;
      pcb.rcv_nxt <- Seq.add seg.Segment.seq 1;
      pcb.rcv_adv <- pcb.rcv_nxt;
      pcb.snd_wnd <- seg.Segment.window;
      pcb.snd_wl1 <- seg.Segment.seq;
      pcb.snd_wl2 <- pcb.iss;
      pcb.parent_listener <- Some l;
      l.l_half_open <- l.l_half_open + 1;
      t.memo <- None;
      conns_insert t key pcb;
      send_syn_ack t pcb;
      arm_rexmt t pcb
    end
  end

let handle_syn_sent t pcb (seg : Segment.t) payload =
  let f = seg.Segment.flags in
  let ack_acceptable =
    f.Segment.ack
    && Seq.gt seg.Segment.ack pcb.iss
    && Seq.leq seg.Segment.ack pcb.snd_max
  in
  if f.Segment.ack && not ack_acceptable then
    send_rst_for t seg ~data_len:(Mbuf.length payload) ~to_ip:pcb.key.rip
  else if f.Segment.rst then begin
    if ack_acceptable then drop_pcb t pcb (Some Refused)
  end
  else if f.Segment.syn then begin
    pcb.irs <- seg.Segment.seq;
    pcb.rcv_nxt <- Seq.add seg.Segment.seq 1;
    pcb.rcv_adv <- pcb.rcv_nxt;
    (match seg.Segment.mss with
    | Some m -> pcb.mss <- Int.min m pcb.mss
    | None -> pcb.mss <- Int.min 536 pcb.mss);
    pcb.cwnd <- pcb.mss;
    pcb.snd_wnd <- seg.Segment.window;
    pcb.snd_wl1 <- seg.Segment.seq;
    pcb.snd_wl2 <- seg.Segment.ack;
    if ack_acceptable then begin
      (* our SYN is acked: connection complete *)
      pcb.snd_una <- seg.Segment.ack;
      stop_timer t pcb tm_rexmt;
      pcb.nrexmt <- 0;
      set_flag pcb f_ack_now true;
      establish pcb;
      send_ack t pcb;
      output t pcb ~force:false
    end
    else begin
      (* simultaneous open *)
      set_state pcb Syn_received;
      send_syn_ack t pcb
    end
  end

(* ACK processing for synchronised states. Returns false if the segment
   should be dropped. *)
let process_ack t pcb (seg : Segment.t) =
  let ack = seg.Segment.ack in
  if Seq.leq ack pcb.snd_una then begin
    (* duplicate ack *)
    if
      Mbuf.length pcb.sndq > 0
      && Seq.diff pcb.snd_max pcb.snd_una > 0
      && seg.Segment.window = pcb.snd_wnd
    then begin
      t.st.dup_acks_in <- t.st.dup_acks_in + 1;
      pcb.dup_acks <- pcb.dup_acks + 1;
      if pcb.dup_acks = 3 then begin
        (* fast retransmit + fast recovery *)
        t.st.fast_rexmt <- t.st.fast_rexmt + 1;
        let inflight = Int.max pcb.mss (Seq.diff pcb.snd_max pcb.snd_una) in
        pcb.ssthresh <-
          Int.max (2 * pcb.mss) (Int.min inflight pcb.snd_wnd / 2);
        stop_timer t pcb tm_rexmt;
        pcb.rtt_start <- -1;
        let onxt = pcb.snd_nxt in
        pcb.snd_nxt <- pcb.snd_una;
        pcb.cwnd <- pcb.mss;
        output t pcb ~force:true;
        pcb.cwnd <- pcb.ssthresh + (3 * pcb.mss);
        pcb.snd_nxt <- Seq.max onxt pcb.snd_nxt
      end
      else if pcb.dup_acks > 3 then begin
        pcb.cwnd <- pcb.cwnd + pcb.mss;
        output t pcb ~force:false
      end
    end
    else pcb.dup_acks <- 0;
    true
  end
  else if Seq.gt ack pcb.snd_max then begin
    set_flag pcb f_ack_now true;
    false
  end
  else begin
    (* new data acknowledged *)
    if pcb.dup_acks >= 3 then pcb.cwnd <- pcb.ssthresh;
    pcb.dup_acks <- 0;
    if pcb.rtt_start >= 0 && Seq.gt ack pcb.rtt_seq then begin
      update_rtt t pcb (Psd_sim.Engine.now (eng t) - pcb.rtt_start);
      pcb.rtt_start <- -1
    end;
    (* congestion window growth *)
    if pcb.cwnd < pcb.ssthresh then pcb.cwnd <- pcb.cwnd + pcb.mss
    else pcb.cwnd <- pcb.cwnd + Int.max 1 (pcb.mss * pcb.mss / pcb.cwnd);
    pcb.cwnd <- Int.min pcb.cwnd 65535;
    let data_acked =
      Int.min (Int.max 0 (Seq.diff ack pcb.data_base)) (Mbuf.length pcb.sndq)
    in
    if data_acked > 0 then begin
      Mbuf.drop_front pcb.sndq data_acked;
      pcb.data_base <- Seq.add pcb.data_base data_acked
    end;
    let fin_acked =
      (fin_sent pcb) && Seq.geq ack (Seq.add (fin_seq pcb) 1)
    in
    pcb.snd_una <- ack;
    if Seq.lt pcb.snd_nxt pcb.snd_una then pcb.snd_nxt <- pcb.snd_una;
    pcb.nrexmt <- 0;
    if Seq.diff pcb.snd_max pcb.snd_una = 0 then stop_timer t pcb tm_rexmt
    else arm_rexmt t pcb;
    if data_acked > 0 then pcb.handlers.on_acked pcb data_acked;
    (* state transitions on FIN acknowledgement *)
    (match pcb.state with
    | Syn_received -> establish pcb
    | Fin_wait_1 when fin_acked -> set_state pcb Fin_wait_2
    | Closing when fin_acked ->
      set_state pcb Time_wait;
      arm_msl t pcb
    | Last_ack when fin_acked -> drop_pcb t pcb None
    | _ -> ());
    not (dead pcb)
  end

let handle_synchronized t pcb (seg : Segment.t) payload =
  let f = seg.Segment.flags in
  let seq = ref seg.Segment.seq in
  let fin = ref f.Segment.fin in
  (* --- trim to the receive window --------------------------------- *)
  let wnd = rcv_window pcb in
  (* left edge *)
  let todrop = Seq.diff pcb.rcv_nxt !seq in
  let seg_len = Mbuf.length payload in
  let dropped_all_dup =
    if todrop > 0 then begin
      if todrop >= seg_len then begin
        (* complete duplicate (possibly a retransmitted FIN) *)
        if !fin && todrop = seg_len + 1 then begin
          (* the FIN itself is the duplicate: clear the flag so the FIN
             machinery below does not run again — rcv_nxt already sits
             past it, and a second pass would deliver EOF twice. A
             retransmitted FIN in TIME-WAIT still restarts the 2MSL
             timer (RFC 793), which the re-run used to do as a side
             effect. *)
          fin := false;
          if pcb.state = Time_wait then arm_msl t pcb
        end;
        set_flag pcb f_ack_now true;
        if todrop > seg_len || not !fin then begin
          if seg_len > 0 || not f.Segment.ack then true
          else false (* pure ACK with old seq: still process the ack *)
        end
        else begin
          (* exactly the data is dup but FIN is new *)
          Mbuf.trim_front payload seg_len;
          seq := Seq.add !seq seg_len;
          false
        end
      end
      else begin
        Mbuf.trim_front payload todrop;
        seq := Seq.add !seq todrop;
        false
      end
    end
    else false
  in
  if dropped_all_dup then send_ack t pcb
  else begin
    (* right edge *)
    let seg_len = Mbuf.length payload in
    let excess = Seq.diff (Seq.add !seq seg_len) (Seq.add pcb.rcv_nxt wnd) in
    let beyond =
      if excess > 0 then
        if excess >= seg_len && seg_len > 0 then begin
          set_flag pcb f_ack_now true;
          true
        end
        else begin
          if excess > 0 && seg_len > 0 then begin
            Mbuf.trim_back payload excess;
            fin := false
          end;
          false
        end
      else false
    in
    if beyond then send_ack t pcb
    else if f.Segment.rst then begin
      match pcb.state with
      | Syn_received -> drop_pcb t pcb (Some Refused)
      | Closing | Last_ack | Time_wait -> drop_pcb t pcb None
      | _ -> drop_pcb t pcb (Some Reset)
    end
    else if f.Segment.syn && Seq.geq !seq pcb.rcv_nxt then begin
      (* SYN in window: fatal *)
      send_rst_for t seg ~data_len:0 ~to_ip:pcb.key.rip;
      drop_pcb t pcb (Some Reset)
    end
    else if not f.Segment.ack then () (* post-handshake segments need ACK *)
    else begin
      let continue_ = process_ack t pcb seg in
      if continue_ && not (dead pcb) then begin
        (* window update *)
        if
          Seq.lt pcb.snd_wl1 !seq
          || (pcb.snd_wl1 = !seq && Seq.leq pcb.snd_wl2 seg.Segment.ack)
        then begin
          let opened = seg.Segment.window > pcb.snd_wnd in
          pcb.snd_wnd <- seg.Segment.window;
          pcb.snd_wl1 <- !seq;
          pcb.snd_wl2 <- seg.Segment.ack;
          if opened then stop_timer t pcb tm_persist
        end;
        (* data *)
        let seg_len = Mbuf.length payload in
        let receivable =
          match pcb.state with
          | Established | Fin_wait_1 | Fin_wait_2 -> true
          | _ -> false
        in
        if seg_len > 0 && receivable then begin
          if !seq = pcb.rcv_nxt && pcb.reass = [] then begin
            (* common case: in-order segment *)
            pcb.rcv_nxt <- Seq.add pcb.rcv_nxt seg_len;
            pcb.rcv_buffered <- pcb.rcv_buffered + seg_len;
            t.st.bytes_in <- t.st.bytes_in + seg_len;
            deliver_data pcb payload;
            (* ack every other segment; delay otherwise *)
            if (delack_pending pcb) then set_flag pcb f_ack_now true
            else begin
              set_flag pcb f_delack_pending true;
              arm_delack t pcb
            end
          end
          else begin
            insert_reass t pcb !seq payload;
            splice t pcb;
            (* out-of-order: duplicate ack immediately (fast rexmt aid) *)
            set_flag pcb f_ack_now true
          end
        end
        else if seg_len > 0 then
          (* data arriving in a state that cannot accept it *)
          set_flag pcb f_ack_now true;
        if !fin && pcb.fin_rcvd < 0 then pcb.fin_rcvd <- Seq.add !seq seg_len;
        process_fin_if_ready t pcb;
        if not (dead pcb) then begin
          if (ack_now pcb) then send_ack t pcb;
          output t pcb ~force:false
        end
      end
      else if (ack_now pcb) && not (dead pcb) then send_ack t pcb
    end
  end

(* --- header prediction (Van Jacobson) ------------------------------- *)

(* Classifies a synchronized-state segment for the [predict_hit] /
   [predict_miss] counters; every segment then takes
   [handle_synchronized]. A predicted segment is one on which each
   branch that could do work before ACK processing is a no-op:
   connection in steady state, no control flags (PSH is allowed — like
   BSD's prediction mask, and nothing in this input path reads it),
   exactly the next expected sequence (left trim [todrop] = 0), nothing
   queued for reassembly, and the payload inside the receive window
   (right trim [excess] <= 0). *)
let predicted pcb (seg : Segment.t) payload =
  let f = seg.Segment.flags in
  pcb.state = Established
  && f.Segment.ack
  && (not f.Segment.syn)
  && (not f.Segment.fin)
  && (not f.Segment.rst)
  && (not f.Segment.urg)
  && seg.Segment.seq = pcb.rcv_nxt
  && pcb.reass = []
  && Mbuf.length payload <= rcv_window pcb

let input t ~(hdr : Psd_ip.Header.t) (m : Mbuf.t) =
  Psd_sim.Lock.with_lock t.lock (fun () ->
      let seg_len = Mbuf.length m in
      charge_segment_in t seg_len;
      (* fast path: a delivered packet arrives as one contiguous view,
         so the header decode and checksum run in place; only a
         reassembled multi-segment chain still flattens (and is counted
         doing so) *)
      let b, off =
        match Mbuf.contiguous m with
        | Some (b, off, _) -> (b, off)
        | None ->
          Psd_util.Copies.count Psd_util.Copies.Rx_flatten seg_len;
          (Mbuf.to_bytes m, 0)
      in
      match
        Segment.decode ~off ~len:seg_len b ~src:hdr.Psd_ip.Header.src
          ~dst:hdr.Psd_ip.Header.dst
      with
      | Error Segment.Bad_checksum ->
        t.st.drop_checksum <- t.st.drop_checksum + 1
      | Error (Segment.Truncated | Segment.Bad_offset) ->
        t.st.drop_malformed <- t.st.drop_malformed + 1
      | Ok (seg, payload) -> (
        t.st.segs_in <- t.st.segs_in + 1;
        let key =
          {
            lport = seg.Segment.dst_port;
            rip = hdr.Psd_ip.Header.src;
            rport = seg.Segment.src_port;
          }
        in
        let hit =
          match t.memo with
          | Some p when key_equal p.key key -> t.memo
          | _ ->
            let found = Keytbl.find_opt t.conns key in
            (match found with Some _ -> t.memo <- found | None -> ());
            found
        in
        match hit with
        | Some pcb -> (
          pcb.last_activity <- Psd_sim.Engine.now (eng t);
          pcb.keep_probes <- 0;
          match pcb.state with
          | Syn_sent -> handle_syn_sent t pcb seg payload
          | Closed | Listen -> ()
          | _ ->
            if predicted pcb seg payload then
              t.st.predict_hit <- t.st.predict_hit + 1
            else t.st.predict_miss <- t.st.predict_miss + 1;
            handle_synchronized t pcb seg payload)
        | None ->
          (* a migrating connection's segments must be dropped silently —
             even when a listener still covers the port, or the stack
             would answer the peer's in-flight data with a reset *)
          let muted =
            match Keytbl.find_opt t.muted key with
            | Some expiry when Psd_sim.Engine.now (eng t) < expiry -> true
            | Some _ ->
              Keytbl.remove t.muted key;
              false
            | None -> false
          in
          if muted then t.st.drop_no_pcb <- t.st.drop_no_pcb + 1
          else (
            match Hashtbl.find_opt t.listeners seg.Segment.dst_port with
            | Some l when not l.l_closed ->
              handle_listener t l seg ~from_ip:hdr.Psd_ip.Header.src
            | _ ->
              t.st.drop_no_pcb <- t.st.drop_no_pcb + 1;
              send_rst_for t seg ~data_len:(Mbuf.length payload)
                ~to_ip:hdr.Psd_ip.Header.src)))

(* ----------------------------------------------------------------- *)
(* user interface                                                     *)

let create ~ctx ~ip ?(mss = 1460) ?(msl_ns = Psd_sim.Time.sec 30)
    ?(rto_min_ns = Psd_sim.Time.ms 500) ?(rto_init_ns = Psd_sim.Time.ms 1000)
    ?(delack_ns = Psd_sim.Time.ms 200)
    ?(default_rcv_buf = 24 * 1024)
    ?(keep_idle_ns = Psd_sim.Time.sec (2 * 60 * 60))
    ?(keep_interval_ns = Psd_sim.Time.sec 75) ?(keep_max_probes = 8)
    ?(pcb_pool = 1024) () =
  let t =
    {
      ctx;
      ip;
      lock = Psd_sim.Lock.create ctx.Ctx.eng;
      default_mss = mss;
      default_rcv_buf;
      msl_ns;
      rto_min_ns;
      rto_max_ns = Psd_sim.Time.sec 64;
      rto_init_ns;
      delack_ns;
      keep_idle_ns;
      keep_interval_ns;
      keep_max_probes;
      conns = Keytbl.create 32;
      memo = None;
      listeners = Hashtbl.create 8;
      muted = Keytbl.create 8;
      conn_gauge = None;
      pool_cap = Int.max 0 pcb_pool;
      pool = [];
      pool_free = 0;
      pool_fresh = 0;
      pool_hits = 0;
      pool_puts = 0;
      st =
        {
          segs_out = 0;
          bytes_out = 0;
          segs_in = 0;
          bytes_in = 0;
          rexmt_segs = 0;
          fast_rexmt = 0;
          dup_acks_in = 0;
          ooo_segs = 0;
          acks_delayed = 0;
          rst_out = 0;
          drop_checksum = 0;
          drop_malformed = 0;
          drop_no_pcb = 0;
          predict_hit = 0;
          predict_miss = 0;
        };
    }
  in
  Psd_ip.Ip.register ip ~proto:Psd_ip.Header.proto_tcp (fun ~hdr m ->
      input t ~hdr m);
  t

let connect t ?(handlers = null_handlers) ?(claim_data = true)
    ?rcv_buf ~src_port ~dst ~dst_port () =
  let rcv_buf = Option.value rcv_buf ~default:t.default_rcv_buf in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      let key = { lport = src_port; rip = dst; rport = dst_port } in
      if Keytbl.mem t.conns key then
        invalid_arg "Tcp.connect: connection exists";
      let pcb =
        make_pcb t ~key ~state:Syn_sent ~handlers ~rcv_buf
          ~mss:t.default_mss
      in
      set_flag pcb f_handlers_set claim_data;
      pcb.iss <- fresh_iss t;
      pcb.snd_una <- pcb.iss;
      pcb.snd_nxt <- Seq.add pcb.iss 1;
      pcb.snd_max <- pcb.snd_nxt;
      pcb.data_base <- Seq.add pcb.iss 1;
      t.memo <- None;
      conns_insert t key pcb;
      send_syn t pcb;
      arm_rexmt t pcb;
      pcb)

let listen t ~port ?(backlog = 5) () =
  Psd_sim.Lock.with_lock t.lock (fun () ->
      if Hashtbl.mem t.listeners port then
        invalid_arg "Tcp.listen: port in use";
      let l =
        {
          l_port = port;
          l_backlog = Int.max 1 backlog;
          l_queue = Queue.create ();
          l_half_open = 0;
          l_ready_cb = (fun () -> ());
          l_closed = false;
        }
      in
      Hashtbl.replace t.listeners port l;
      l)

let accept_ready l = Queue.take_opt l.l_queue

let on_ready l cb = l.l_ready_cb <- cb

let pending l = Queue.length l.l_queue

let close_listener t l =
  Psd_sim.Lock.with_lock t.lock (fun () ->
      l.l_closed <- true;
      Hashtbl.remove t.listeners l.l_port;
      (* connections still queued are aborted *)
      Queue.iter
        (fun pcb ->
          t.st.rst_out <- t.st.rst_out + 1;
          let flags = { Segment.no_flags with Segment.rst = true } in
          emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip
            ~dst_port:pcb.key.rport ~seq:pcb.snd_nxt ~ack:0 ~flags ~window:0
            ~mss_opt:None (Mbuf.empty ());
          drop_pcb t pcb None)
        l.l_queue;
      Queue.clear l.l_queue)

let send pcb m =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      if (fin_wanted pcb) then invalid_arg "Tcp.send: after shutdown";
      (match pcb.state with
      | Established | Close_wait | Syn_sent | Syn_received -> ()
      | _ -> invalid_arg "Tcp.send: connection not open");
      Mbuf.concat pcb.sndq m;
      output t pcb ~force:false)

let user_consumed pcb n =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      pcb.rcv_buffered <- Int.max 0 (pcb.rcv_buffered - n);
      (* window-update ACK when the window opens significantly *)
      let new_wnd = rcv_window pcb in
      let advertised = Int.max 0 (Seq.diff pcb.rcv_adv pcb.rcv_nxt) in
      if
        (not (dead pcb))
        && pcb.state <> Closed
        && (new_wnd - advertised >= 2 * pcb.mss
           || (advertised = 0 && new_wnd > 0))
      then send_ack t pcb)

let shutdown_send pcb =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      if not (fin_wanted pcb) then begin
        set_flag pcb f_fin_wanted true;
        match pcb.state with
        | Syn_sent ->
          (* nothing sent yet; tear down silently *)
          drop_pcb t pcb None
        | Established | Close_wait | Syn_received ->
          output t pcb ~force:false
        | _ -> ()
      end)

let abort pcb =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      if not (dead pcb) then begin
        (match pcb.state with
        | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
          ->
          t.st.rst_out <- t.st.rst_out + 1;
          let flags =
            { Segment.no_flags with Segment.rst = true; ack = true }
          in
          emit t ~src_port:pcb.key.lport ~dst:pcb.key.rip
            ~dst_port:pcb.key.rport ~seq:pcb.snd_nxt ~ack:pcb.rcv_nxt ~flags
            ~window:0 ~mss_opt:None (Mbuf.empty ())
        | _ -> ());
        drop_pcb t pcb None
      end)

let set_handlers ?(claim_data = true) pcb h =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      pcb.handlers <- h;
      if not claim_data then set_flag pcb f_handlers_set false
      else begin
      set_flag pcb f_handlers_set true;
      if Mbuf.length pcb.undelivered > 0 then begin
        let pending = Mbuf.split pcb.undelivered (Mbuf.length pcb.undelivered) in
        h.deliver pcb pending
      end;
      if flag pcb f_fin_undelivered then begin
        set_flag pcb f_fin_undelivered false;
        h.deliver_fin pcb
      end
      end)

(* ----------------------------------------------------------------- *)
(* session migration                                                  *)

type snapshot = pcb

(* Give a queue's bytes a private chain: queued data may alias memory
   the session is leaving behind (an application's owned send buffer,
   a delivery-channel slot), so a migration copies what it carries. An
   empty queue keeps its chain. *)
let privatize q =
  let n = Mbuf.length q in
  if n > 0 then begin
    let s = Mbuf.to_string q in
    Mbuf.drop_front q n;
    Mbuf.concat q (Mbuf.of_string s)
  end

(* Segments already queued toward the stack a session just left must be
   dropped silently rather than answered with a reset. *)
let quench_ns = Psd_sim.Time.sec 1

let privatize_sndq pcb = if not (dead pcb) then privatize pcb.sndq

let export pcb =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      if dead pcb then invalid_arg "Tcp.export: dead pcb";
      privatize pcb.sndq;
      privatize pcb.undelivered;
      List.iter (fun (_, m) -> privatize m) pcb.reass;
      (* Detach without emitting anything: the session is in transit. *)
      unlink t pcb;
      Keytbl.replace t.muted pcb.key (Psd_sim.Engine.now (eng t) + quench_ns);
      pcb)

let import t ?(owner = No_owner) ~handlers pcb =
  Psd_sim.Lock.with_lock t.lock (fun () ->
      (* in transit: only [export] leaves a dead pcb in a state other
         than [Closed] (a dropped one, pooled or not, is [Closed]) *)
      if not (dead pcb && pcb.state <> Closed) then
        invalid_arg "Tcp.import: not in transit";
      if Keytbl.mem t.conns pcb.key then
        invalid_arg "Tcp.import: connection exists";
      pcb.t <- t;
      pcb.gen <- pcb.gen + 1;
      (* the owner must be installed before the re-delivery below:
         shared handlers recover their per-connection state through it *)
      pcb.owner <- owner;
      pcb.handlers <- handlers;
      let fin_undelivered = flag pcb f_fin_undelivered in
      pcb.flags <-
        pcb.flags
        land (f_fin_wanted lor f_fin_sent lor f_nodelay lor f_delack_pending)
        lor f_handlers_set;
      reset_life pcb;
      t.memo <- None;
      conns_insert t pcb.key pcb;
      (* Re-deliver data that was buffered but not yet consumed. *)
      let n = Mbuf.length pcb.undelivered in
      if n > 0 then handlers.deliver pcb (Mbuf.split pcb.undelivered n);
      if fin_undelivered then handlers.deliver_fin pcb;
      (* restart machinery *)
      if Seq.diff pcb.snd_max pcb.snd_una > 0 then arm_rexmt t pcb;
      if delack_pending pcb then arm_delack t pcb;
      if pcb.state = Time_wait then arm_msl t pcb;
      pcb)

let set_keepalive pcb v =
  let t = pcb.t in
  Psd_sim.Lock.with_lock t.lock (fun () ->
      set_flag pcb f_keepalive v;
      pcb.last_activity <- Psd_sim.Engine.now (eng t);
      if v then arm_keepalive t pcb else stop_timer t pcb tm_keep)

let can_send pcb =
  (not (dead pcb)) && (not (fin_wanted pcb))
  &&
  match pcb.state with
  | Established | Close_wait | Syn_sent | Syn_received -> true
  | _ -> false
