open Psd_core

type recovery = {
  rexmt : int;
  fast_rexmt : int;
  dup_acks_in : int;
  ooo_segs : int;
  drop_checksum : int;
  drop_malformed : int;
  reass_timed_out : int;
  injected : int;
  predict_hit : int;
  predict_miss : int;
}

let pp_recovery fmt r =
  Psd_util.Stats.pp_counters fmt
    [
      ("injected", r.injected);
      ("rexmt", r.rexmt);
      ("fast_rexmt", r.fast_rexmt);
      ("dup_acks_in", r.dup_acks_in);
      ("ooo_segs", r.ooo_segs);
      ("drop_checksum", r.drop_checksum);
      ("drop_malformed", r.drop_malformed);
      ("reass_timed_out", r.reass_timed_out);
    ]

type result = {
  config : Psd_cost.Config.t;
  bytes : int;
  elapsed_ns : int;
  kb_per_sec : float;
  rcv_buf : int;
  segs_out : int;
  rexmt : int;
  wire_utilization : float;
  recovery : recovery;
}

(* The stream's invariant is byte-at-offset = offset mod 256, so any
   received chunk must equal a window of this repeating table starting at
   (offset mod 256). One memcmp per chunk replaces the old per-byte
   closure scan that dominated receiver wall-clock; the byte-level walk
   below runs only on mismatch, to name the first corrupt byte. *)
let pattern =
  String.init (65536 + 256) (fun i -> Char.chr (i land 0xff))

(* The byte walk that names the first corrupt byte of [buf]'s range
   [b, b + len), whose first byte is stream byte [off]. *)
let find_corrupt ~label buf ~b ~len off =
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.get buf (b + i)) in
    if c <> (off + i) land 0xff then
      failwith
        (Printf.sprintf "ttcp[%s]: payload corrupt at byte %d (got %#x)"
           label (off + i) c)
  done

(* NEWAPI verification reads the loaned view in place, segment range by
   segment range — flattening it would reintroduce exactly the copy-out
   the loan exists to avoid (and would show up in the loan path's
   allocation guard). Each range is compared 8 bytes at a time against
   [pattern]; the byte walk runs only on a mismatch. *)
let verify_loan ~label view ~stream_off =
  ignore
    (Psd_mbuf.Mbuf.fold_ranges view ~init:stream_off
       ~f:(fun off buf ~off:b ~len ->
         let i = ref 0 in
         while
           !i + 8 <= len
           && Int64.equal
                (Bytes.get_int64_ne buf (b + !i))
                (String.get_int64_ne pattern ((off + !i) land 0xff))
         do
           i := !i + 8
         done;
         find_corrupt ~label buf ~b:(b + !i) ~len:(len - !i) (off + !i);
         off + len))

let run ?(machine = Paper.Dec) ?(mb = 16) ?rcv_buf ?delack_ns ?(seed = 7)
    ?fault ?probe ?(wire = Wire.Shared) config =
  let plat = Paper.platform machine in
  let rcv_buf =
    Option.value rcv_buf ~default:(Paper.best_rcv_buf machine config)
  in
  (* sender on shard 0, receiver on shard 1 when there is one *)
  let shard = Psd_sim.Shard.create ~seed ~n:(Wire.shards wire) () in
  let sid_b = Int.min 1 (Wire.shards wire - 1) in
  let eng_a = Psd_sim.Shard.engine shard 0 in
  let eng_b = Psd_sim.Shard.engine shard sid_b in
  let segment = Wire.segment wire shard () in
  let sys_a =
    System.create ~eng:eng_a ~segment ~config ~plat ~rcv_buf ?delack_ns
      ~addr:"10.0.0.1" ~name:"sender" ()
  in
  let sys_b =
    System.create ~eng:eng_b ~segment ~config ~plat ~rcv_buf
      ?delack_ns ~addr:"10.0.0.2" ~name:"receiver" ()
  in
  (* Wire-level fault injection covers both directions (data and acks).
     Fault RNGs exist only when a live policy is installed, so
     fault-free runs replay the seed bit-identically. *)
  let wire_faults =
    Wire.install_faults wire ~seed shard fault ~segments:[ segment ]
      ~hosts:[ sys_a; sys_b ]
  in
  let total = mb * 1024 * 1024 in
  let newapi = config.Psd_cost.Config.api = Psd_cost.Config.Newapi in
  let received = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  let wire_busy_start = ref 0 in
  (* receiver: accept one connection, drain it *)
  let rapp = System.app sys_b ~name:"ttcp-r" in
  Psd_sim.Engine.spawn eng_b ~name:"ttcp-r" (fun () ->
      let s = Sockets.stream rapp in
      (match Sockets.bind s ~port:5001 () with
      | Ok _ -> ()
      | Error e -> failwith e);
      (match Sockets.listen s () with Ok () -> () | Error e -> failwith e);
      match Sockets.accept s with
      | Error e -> failwith e
      | Ok c ->
        let rec drain () =
          match Sockets.recv c ~max:65536 with
          | Ok "" -> t_end := Psd_sim.Engine.now eng_b
          | Ok d ->
            (* End-to-end integrity: every byte must equal its stream
               offset mod 256, so any corruption that slipped past the
               checksums (or any reassembly bug) is caught here. *)
            let n = String.length d in
            if
              n > 0
              && not
                   (String.equal d
                      (String.sub pattern (!received land 0xff) n))
            then
              String.iteri
                (fun i c ->
                  let off = !received + i in
                  if Char.code c <> off land 0xff then
                    failwith
                      (Printf.sprintf
                         "ttcp[%s]: payload corrupt at byte %d (got %#x)"
                         config.Psd_cost.Config.label off (Char.code c)))
                d;
            received := !received + n;
            drain ()
          | Error e -> failwith ("ttcp receiver: " ^ e)
        in
        (* NEWAPI drain: borrow each chunk where the stack deposited it,
           verify through the view, give it straight back. The loan is
           returned in the same simulation instant it was granted, so
           window reopening — and therefore every transcript event —
           matches the classic copy-out drain exactly. *)
        let rec drain_loan () =
          match Sockets.recv_loan c ~max:65536 with
          | Error e -> failwith ("ttcp receiver: " ^ e)
          | Ok l ->
            let n = Sockets.loan_length l in
            if n = 0 then begin
              Sockets.return_loan c l;
              t_end := Psd_sim.Engine.now eng_b
            end
            else begin
              verify_loan ~label:config.Psd_cost.Config.label
                (Sockets.loan_view l) ~stream_off:!received;
              received := !received + n;
              Sockets.return_loan c l;
              drain_loan ()
            end
        in
        if newapi then drain_loan () else drain ());
  (* sender: connect and pump [total] bytes in 8KB writes (like ttcp) *)
  let sapp = System.app sys_a ~name:"ttcp-s" in
  Psd_sim.Engine.spawn eng_a ~name:"ttcp-s" (fun () ->
      let s = Sockets.stream sapp in
      (match Sockets.connect s (System.addr sys_b) 5001 with
      | Ok () -> ()
      | Error e -> failwith ("ttcp connect: " ^ e));
      t_start := Psd_sim.Engine.now eng_a;
      wire_busy_start := Psd_mach.Netdev.wire_busy_ns (System.netdev sys_a);
      (* 8192 is a multiple of 256, so a block whose byte [i] is
         [i mod 256] makes every byte of the stream equal its global
         offset mod 256 — cheap for the receiver to verify. *)
      let block = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
      let rec pump sent =
        if sent < total then begin
          let n = Int.min (String.length block) (total - sent) in
          let chunk = if n = String.length block then block else String.sub block 0 n in
          match Sockets.send s chunk with
          | Ok _ -> pump (sent + n)
          | Error e -> failwith ("ttcp send: " ^ e)
        end
      in
      (* NEWAPI pump: a ring of caller-owned blocks lent to the stack.
         nring * 8192 = snd_hiwat + 8192, so when send #(k-1) returns
         the send queue holds at most snd_hiwat bytes and everything
         through send #(k-nring) has been acknowledged — the slot about
         to be reused is provably complete. Assert rather than wait:
         the pump's virtual-time behaviour stays exactly [pump]'s. *)
      let pump_owned () =
        let nring = 4 in
        let ring =
          Array.init nring (fun _ ->
              Bytes.init 8192 (fun i -> Char.chr (i land 0xff)))
        in
        let completed = Array.make nring true in
        let rec go k sent =
          if sent < total then begin
            let n = Int.min 8192 (total - sent) in
            let slot = k mod nring in
            if not completed.(slot) then
              failwith
                "ttcp: owned buffer reused before its completion fired";
            completed.(slot) <- false;
            let buf =
              if n = 8192 then ring.(slot) else Bytes.sub ring.(slot) 0 n
            in
            match
              Sockets.send_owned s buf ~completion:(fun () ->
                  completed.(slot) <- true)
            with
            | Ok _ -> go (k + 1) (sent + n)
            | Error e -> failwith ("ttcp send: " ^ e)
          end
        in
        go 0 0
      in
      if newapi then pump_owned () else pump 0;
      Sockets.close s);
  Wire.run_for wire shard (Psd_sim.Time.sec (60 * (mb + 4)));
  if !received < total then
    failwith
      (Printf.sprintf "ttcp[%s]: only %d of %d bytes arrived"
         config.Psd_cost.Config.label !received total);
  (match probe with
  | Some f -> f ~sender:sys_a ~receiver:sys_b
  | None -> ());
  let elapsed = !t_end - !t_start in
  let stats = System.stacks_tcp_stats sys_a in
  let segs_out =
    List.fold_left (fun acc st -> acc + st.Psd_tcp.Tcp.segs_out) 0 stats
  in
  let rexmt =
    List.fold_left (fun acc st -> acc + st.Psd_tcp.Tcp.rexmt_segs) 0 stats
  in
  let recovery =
    let both = System.stacks_tcp_stats sys_a @ System.stacks_tcp_stats sys_b in
    let sum f = List.fold_left (fun acc st -> acc + f st) 0 both in
    {
      rexmt = sum (fun st -> st.Psd_tcp.Tcp.rexmt_segs);
      fast_rexmt = sum (fun st -> st.Psd_tcp.Tcp.fast_rexmt);
      dup_acks_in = sum (fun st -> st.Psd_tcp.Tcp.dup_acks_in);
      ooo_segs = sum (fun st -> st.Psd_tcp.Tcp.ooo_segs);
      drop_checksum = sum (fun st -> st.Psd_tcp.Tcp.drop_checksum);
      drop_malformed = sum (fun st -> st.Psd_tcp.Tcp.drop_malformed);
      reass_timed_out =
        System.reass_timed_out sys_a + System.reass_timed_out sys_b;
      injected = Wire.injected wire_faults;
      predict_hit = sum (fun st -> st.Psd_tcp.Tcp.predict_hit);
      predict_miss = sum (fun st -> st.Psd_tcp.Tcp.predict_miss);
    }
  in
  {
    config;
    bytes = total;
    elapsed_ns = elapsed;
    kb_per_sec =
      float_of_int total /. 1024. /. (float_of_int elapsed /. 1e9);
    rcv_buf;
    segs_out;
    rexmt;
    wire_utilization =
      float_of_int
        (Psd_mach.Netdev.wire_busy_ns (System.netdev sys_a)
        - !wire_busy_start)
      /. float_of_int elapsed;
    recovery;
  }

let pp fmt r =
  Format.fprintf fmt "%-36s %8.0f KB/s  (buf %3dKB, %5d segs, %d rexmt, wire %.0f%%)"
    r.config.Psd_cost.Config.label r.kb_per_sec (r.rcv_buf / 1024) r.segs_out
    r.rexmt
    (100. *. r.wire_utilization)
