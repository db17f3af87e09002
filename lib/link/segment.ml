(* NIC addresses as 48-bit ints: the unicast index hashes and compares
   them without touching the C string primitives. *)
module Mactbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x1e3779b97f4a7c15 in
    (h lxor (h lsr 31)) land max_int
end)

type nic = {
  nic_mac : Macaddr.t;
  mutable rx : Bytes.t -> unit;
  mutable promisc : bool;
  mutable nic_fault : Fault.t option;
  segment : t;
  (* the engine (and shard) that owns this NIC's host; equal to [t.eng]
     (shard 0) on a classic shared segment *)
  nic_eng : Psd_sim.Engine.t;
  nic_shard : int;
  (* duplex mode: each NIC serialises its own transmissions *)
  mutable nic_busy_until : int;
  mutable nic_frames : int;
  mutable nic_busy_ns : int;
}

and t = {
  eng : Psd_sim.Engine.t;
  (* [Some shard] switches the segment to duplex delivery: per-NIC
     transmit serialisation and per-receiver delivery events routed
     through the shard layer (possibly to another domain). [None] is
     the classic shared half-duplex medium. *)
  shard : Psd_sim.Shard.t option;
  prop_ns : int;
  bps : int;
  mutable nics : nic list; (* attach order *)
  (* unicast index: MAC -> the NICs carrying it, in attach order. A
     unicast frame on a segment without promiscuous NICs is delivered
     from its index entry instead of a walk over every NIC. *)
  by_mac : nic list Mactbl.t;
  mutable promisc_nics : int;
  mutable fault : Fault.t option;
  mutable busy_until : int;
  mutable frames : int;
  mutable busy_ns : int;
}

let preamble_bytes = 8

(* the standard 10 Mb/s inter-frame gap, 9.6 us *)
let ifg_ns = 9_600

(* The first six bytes of [b] as a 48-bit int: a MAC, or a frame's
   destination address. *)
let mac_key b =
  (Bytes.get_uint16_be b 0 lsl 32)
  lor (Bytes.get_uint16_be b 2 lsl 16)
  lor Bytes.get_uint16_be b 4

let key_of_mac m = mac_key (Bytes.unsafe_of_string (Macaddr.to_string m))

let broadcast_key = key_of_mac Macaddr.broadcast

let create eng ?(bps = 10_000_000) () =
  {
    eng;
    shard = None;
    prop_ns = 0;
    bps;
    nics = [];
    by_mac = Mactbl.create 16;
    promisc_nics = 0;
    fault = None;
    busy_until = 0;
    frames = 0;
    busy_ns = 0;
  }

let create_duplex shard ?(bps = 10_000_000) ?(prop_ns = 0) () =
  if prop_ns < 0 then invalid_arg "Segment.create_duplex: negative prop_ns";
  {
    eng = Psd_sim.Shard.engine shard 0;
    shard = Some shard;
    prop_ns;
    bps;
    nics = [];
    by_mac = Mactbl.create 16;
    promisc_nics = 0;
    fault = None;
    busy_until = 0;
    frames = 0;
    busy_ns = 0;
  }

let duplex t = t.shard <> None

let frame_time t len =
  let len = Int.max len Frame.min_frame in
  let bits = (len + preamble_bytes) * 8 in
  (bits * 1_000_000_000 / t.bps) + ifg_ns

(* Earliest possible sender-clock-to-arrival delta of any frame on this
   segment: minimum-size serialisation (the trailing inter-frame gap is
   not part of the arrival time) plus propagation. This is the
   conservative lookahead a duplex wire contributes between shards. *)
let min_latency t = frame_time t Frame.min_frame - ifg_ns + t.prop_ns

let attach_on t ~eng ~mac =
  let si =
    match t.shard with
    | None when eng == t.eng -> 0
    | None ->
      invalid_arg "Segment.attach_on: engine is not the segment's engine"
    | Some sh -> (
      match Psd_sim.Shard.index_of sh eng with
      | Some si -> si
      | None ->
        invalid_arg "Segment.attach_on: engine is not one of the shard engines")
  in
  let nic =
    {
      nic_mac = mac;
      rx = (fun _ -> ());
      promisc = false;
      nic_fault = None;
      segment = t;
      nic_eng = eng;
      nic_shard = si;
      nic_busy_until = 0;
      nic_frames = 0;
      nic_busy_ns = 0;
    }
  in
  (* a wire between two shards bounds how soon one can disturb the
     other: declare it, keeping the minimum over parallel wires *)
  (match t.shard with
  | Some sh ->
    let d = min_latency t in
    List.iter
      (fun other ->
        if other.nic_shard <> si then begin
          Psd_sim.Shard.set_lookahead sh ~src:si ~dst:other.nic_shard d;
          Psd_sim.Shard.set_lookahead sh ~src:other.nic_shard ~dst:si d
        end)
      t.nics
  | None -> ());
  t.nics <- t.nics @ [ nic ];
  let key = key_of_mac mac in
  let same = try Mactbl.find t.by_mac key with Not_found -> [] in
  Mactbl.replace t.by_mac key (same @ [ nic ]);
  nic

let attach t ~mac = attach_on t ~eng:t.eng ~mac

let mac nic = nic.nic_mac

let set_rx nic f = nic.rx <- f

let set_promiscuous nic v =
  if v <> nic.promisc then begin
    let t = nic.segment in
    t.promisc_nics <- (t.promisc_nics + if v then 1 else -1);
    nic.promisc <- v
  end

let set_fault t f =
  if t.shard <> None && f <> None then
    invalid_arg
      "Segment.set_fault: duplex segments take per-NIC fault processes \
       (segment-wide state would be shared across domains)";
  t.fault <- f

let set_nic_fault nic f = nic.nic_fault <- f

let pad frame =
  let len = Bytes.length frame in
  if len >= Frame.min_frame then frame
  else begin
    let padded = Bytes.make Frame.min_frame '\x00' in
    Bytes.blit frame 0 padded 0 len;
    padded
  end

(* [f] on every NIC that accepts a frame to [dst], in attach order:
   the index entry for a unicast frame, else a walk that keeps the
   promiscuous NICs and, for broadcast, everyone. *)
let iter_receivers t dst f =
  if t.promisc_nics = 0 && dst <> broadcast_key then
    match Mactbl.find t.by_mac dst with
    | nics -> List.iter f nics
    | exception Not_found -> ()
  else
    List.iter
      (fun r ->
        if r.promisc || dst = broadcast_key || key_of_mac r.nic_mac = dst
        then f r)
      t.nics

(* Classic shared medium: one serialisation queue, one delivery event
   iterating the receivers on the shared engine. Byte-identical to the
   pre-duplex implementation. *)
let transmit_shared nic t frame =
  let now = Psd_sim.Engine.now t.eng in
  let start = Int.max now t.busy_until in
  let occupancy = frame_time t (Bytes.length frame) in
  t.busy_until <- start + occupancy;
  t.frames <- t.frames + 1;
  t.busy_ns <- t.busy_ns + occupancy;
  let arrival = start + occupancy - ifg_ns in
  let dst = mac_key frame in
  Psd_sim.Engine.schedule t.eng (arrival - now) (fun () ->
      iter_receivers t dst (fun receiver ->
          if receiver != nic then begin
            (* each receiver gets a private copy of the frame: it is
               the simulated medium handing the NIC its own bits, and
               it is what makes downstream zero-copy views safe — the
               buffer has exactly one owner and is never written after
               delivery (fault corruption happens below, before the
               receiver sees it) *)
            Psd_util.Copies.count Psd_util.Copies.Wire
              (Bytes.length frame);
            let copy = Bytes.copy frame in
            (* a NIC-specific fault process overrides the segment's *)
            match
              (match receiver.nic_fault with
              | Some _ as f -> f
              | None -> t.fault)
            with
            | None -> receiver.rx copy
            | Some f ->
              List.iter
                (fun (extra_ns, frm) ->
                  if extra_ns = 0 then receiver.rx frm
                  else
                    Psd_sim.Engine.schedule t.eng extra_ns (fun () ->
                        receiver.rx frm))
                (Fault.apply f copy)
          end))

(* Duplex (sharded) medium: the sender serialises on its own NIC and
   each receiver gets its own delivery event on its own engine, routed
   through the shard layer when the receiver lives on another shard.
   The receiver list is walked in attach order, so the set of posted
   (key, dst) deliveries is independent of the shard partition — that,
   plus the shard layer's (key, src, FIFO) injection order, is what
   makes 1-shard and N-shard runs bit-identical. *)
let transmit_duplex nic t sh frame =
  let now = Psd_sim.Engine.now nic.nic_eng in
  let start = Int.max now nic.nic_busy_until in
  let occupancy = frame_time t (Bytes.length frame) in
  nic.nic_busy_until <- start + occupancy;
  nic.nic_frames <- nic.nic_frames + 1;
  nic.nic_busy_ns <- nic.nic_busy_ns + occupancy;
  let arrival = start + occupancy - ifg_ns + t.prop_ns in
  let dst = mac_key frame in
  iter_receivers t dst (fun receiver ->
      if receiver != nic then
        let deliver () =
          (* copy on the receiver's side, as the shared path does *)
          Psd_util.Copies.count Psd_util.Copies.Wire (Bytes.length frame);
          let copy = Bytes.copy frame in
          match receiver.nic_fault with
          | None -> receiver.rx copy
          | Some f ->
            List.iter
              (fun (extra_ns, frm) ->
                if extra_ns = 0 then receiver.rx frm
                else
                  Psd_sim.Engine.schedule receiver.nic_eng extra_ns
                    (fun () -> receiver.rx frm))
              (Fault.apply f copy)
        in
        Psd_sim.Shard.post sh ~src:nic.nic_shard ~dst:receiver.nic_shard
          ~key:arrival deliver)

let transmit nic frame =
  let t = nic.segment in
  let len = Bytes.length frame in
  if len < Frame.header_size then invalid_arg "Segment.transmit: runt frame";
  if len > Frame.max_frame then invalid_arg "Segment.transmit: giant frame";
  let frame = pad frame in
  match t.shard with
  | Some sh -> transmit_duplex nic t sh frame
  | None -> transmit_shared nic t frame

let sum_nics t f = List.fold_left (fun acc n -> acc + f n) 0 t.nics

let frames_sent t =
  if duplex t then sum_nics t (fun n -> n.nic_frames) else t.frames

let nic_busy_ns nic =
  if duplex nic.segment then nic.nic_busy_ns else nic.segment.busy_ns
