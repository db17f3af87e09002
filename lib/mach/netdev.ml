open Psd_cost

type rx_mode = Rx_full_copy | Rx_deferred

type filter_id = int

type filter = {
  id : filter_id;
  prio : int;
  matcher : Bytes.t -> int * int;  (* (accepted_bytes, instructions) *)
  sink : Bytes.t -> unit;
}

type t = {
  host : Host.t;
  nic : Psd_link.Segment.nic;
  mutable mode : rx_mode;
  mutable filters : filter list; (* sorted by prio *)
  mutable egress : (filter_id * (Bytes.t -> int * int)) list;
  mutable next_id : int;
  mutable rx_frames : int;
  mutable rx_unmatched : int;
  mutable tx_blocked : int;
  (* smart-NIC offload: when set, frames bypass the interrupt/filter
     machinery entirely and flow through the NIC pipeline model *)
  mutable offload : (Nicpipe.t * (Bytes.t -> unit)) option;
  intr : Psd_sim.Engine.Task.t; (* the receive interrupt *)
}

(* The receive interrupt, as a fiber-less task: interrupt + driver read
   → demultiplex → filter charge → sink. Only the sink may block
   ([Pktchan.deliver] charges the kernel and waits in Library
   placements), so only it runs under the fiber effect handler. The
   charges go through the continuation forms, which draw the same
   sequence numbers as a fiber's [Ctx.charge_at]; the stages are static
   functions of one record per frame, so a charge that completes inline
   allocates nothing. *)
type rx = { dev : t; frame : Bytes.t; mutable hit : filter option }

let sink r =
  match r.hit with
  | Some f -> Psd_sim.Engine.Task.tail r.dev.intr f.sink r.frame
  | None ->
    r.dev.rx_unmatched <- r.dev.rx_unmatched + 1;
    Psd_sim.Engine.Task.finish r.dev.intr

let sink_stage r = Psd_sim.Engine.Task.stage r.dev.intr sink r

(* first match wins; every filter run is charged *)
let rec demux r insns = function
  | [] -> insns
  | f :: rest ->
    let accept, steps = f.matcher r.frame in
    if accept > 0 then begin
      r.hit <- Some f;
      insns + steps
    end
    else demux r (insns + steps) rest

let filter r =
  let plat = Host.plat r.dev.host in
  let insns = demux r 0 r.dev.filters in
  Ctx.charge_at_k (Host.kernel_ctx r.dev.host) Psd_sim.Cpu.Interrupt
    Phase.Netisr_filter
    (plat.Platform.netisr + plat.Platform.pf_base
    + (insns * plat.Platform.pf_per_insn))
    sink_stage r

let filter_stage r = Psd_sim.Engine.Task.stage r.dev.intr filter r

(* interrupt + driver read *)
let intr r =
  let t = r.dev in
  let plat = Host.plat t.host in
  let len = Bytes.length r.frame in
  t.rx_frames <- t.rx_frames + 1;
  let cost =
    match t.mode with
    | Rx_full_copy ->
      (* the driver copies the whole frame out of device memory;
         deferred mode only peeks at headers and leaves the body for
         the input-packet-filter path to move once *)
      Psd_util.Copies.count Psd_util.Copies.Rx_device len;
      plat.Platform.intr + plat.Platform.drv_rx_fixed
      + (len * plat.Platform.device_read_per_byte)
    | Rx_deferred -> plat.Platform.intr + plat.Platform.drv_rx_peek
  in
  Ctx.charge_at_k (Host.kernel_ctx t.host) Psd_sim.Cpu.Interrupt
    Phase.Device_intr cost filter_stage r

let create ?(shard = 0) host segment ~mac =
  let nic = Psd_link.Segment.attach_on segment ~shard ~mac in
  let t =
    {
      host;
      nic;
      mode = Rx_full_copy;
      filters = [];
      egress = [];
      next_id = 1;
      rx_frames = 0;
      rx_unmatched = 0;
      tx_blocked = 0;
      offload = None;
      intr = Psd_sim.Engine.Task.create (Host.eng host) ~name:"netintr";
    }
  in
  Psd_link.Segment.set_rx nic (fun frame ->
      match t.offload with
      | Some (pipe, sink) ->
        (* no interrupt, no filter run: the NIC pipeline carries the
           frame and the stack sees it at pipeline completion; the body
           reaches the host only by DMA into a loaned buffer *)
        t.rx_frames <- t.rx_frames + 1;
        Nicpipe.admit_deliver pipe ~dir:Nicpipe.Rx ~len:(Bytes.length frame)
          (fun () -> sink frame)
      | None ->
        Psd_sim.Engine.Task.start t.intr intr { dev = t; frame; hit = None });
  t

let mac t = Psd_link.Segment.mac t.nic

let host t = t.host

let wire_busy_ns t = Psd_link.Segment.nic_busy_ns t.nic

let set_rx_mode t mode = t.mode <- mode

let set_fault t f = Psd_link.Segment.set_nic_fault t.nic f

let fault t = Psd_link.Segment.nic_fault t.nic

(* The demultiplexing fast-path ladder (cheapest engine that can decide
   the program, chosen once at install time):
     1. flat descriptor — session filters reduce to a few direct byte
        comparisons, the ARP and all-IP wildcards to one ethertype
        read;
     2. compiled closures — any valid program (snoop/wiretap filters,
        hand-written programs).
   Both report the executed-instruction count the interpreter ([Vm],
   kept as the test reference) would have produced, so the charged
   virtual time is identical whichever rung runs. Callers validate
   first, and every valid program compiles. *)
let make_matcher ?flat prog =
  match flat with
  | Some f -> fun frame -> Psd_bpf.Filter.flat_run f frame
  | None ->
    let c = Psd_bpf.Compile.compile_exn prog in
    fun frame -> Psd_bpf.Compile.run c frame

let attach t ?(prio = 10) ?flat ~prog ~sink () =
  (match Psd_bpf.Vm.validate prog with
  | Ok () -> ()
  | Error e ->
    invalid_arg
      (Format.asprintf "Netdev.attach: invalid filter: %a" Psd_bpf.Vm.pp_error
         e));
  let id = t.next_id in
  t.next_id <- id + 1;
  let f = { id; prio; matcher = make_matcher ?flat prog; sink } in
  t.filters <-
    List.stable_sort
      (fun a b -> compare a.prio b.prio)
      (f :: t.filters);
  id

let detach t id = t.filters <- List.filter (fun f -> f.id <> id) t.filters

(* Outgoing packet limiting (paper Section 3.4): when egress filters are
   installed, a frame must be accepted by at least one of them or it is
   silently discarded. The check runs in the kernel, after the trap, so
   an application library cannot bypass it. *)
let egress_allows t frame =
  match t.egress with
  | [] -> true
  | progs ->
    let plat = Host.plat t.host in
    let insns = ref 0 in
    let ok =
      List.exists
        (fun (_, matcher) ->
          let accept, steps = matcher frame in
          insns := !insns + steps;
          accept > 0)
        progs
    in
    Psd_sim.Engine.spawn (Host.eng t.host) ~name:"egress-charge" (fun () ->
        Ctx.charge_at (Host.kernel_ctx t.host) Psd_sim.Cpu.Kernel
          Phase.Ether_output
          (plat.Platform.pf_base + (!insns * plat.Platform.pf_per_insn)));
    ok

let transmit t ~ctx ~from_user frame =
  match t.offload with
  | Some (pipe, _) ->
    (* descriptor-posted send: no trap, no host device write — the NIC
       DMAs the frame and serialises it after its tx pipeline *)
    if egress_allows t frame then
      Nicpipe.admit_deliver pipe ~dir:Nicpipe.Tx ~len:(Bytes.length frame)
        (fun () -> Psd_link.Segment.transmit t.nic frame)
    else t.tx_blocked <- t.tx_blocked + 1
  | None ->
    let plat = Host.plat t.host in
    let len = Bytes.length frame in
    let cost =
      (if from_user then
         plat.Platform.trap + (len * plat.Platform.copy_user_kernel_per_byte)
       else 0)
      + (len * plat.Platform.device_write_per_byte)
    in
    Ctx.charge ctx Phase.Ether_output cost;
    if egress_allows t frame then Psd_link.Segment.transmit t.nic frame
    else t.tx_blocked <- t.tx_blocked + 1

let attach_egress t ~prog () =
  (match Psd_bpf.Vm.validate prog with
  | Ok () -> ()
  | Error e ->
    invalid_arg
      (Format.asprintf "Netdev.attach_egress: invalid filter: %a"
         Psd_bpf.Vm.pp_error e));
  let id = t.next_id in
  t.next_id <- id + 1;
  t.egress <- (id, make_matcher prog) :: t.egress;
  id

let detach_egress t id =
  t.egress <- List.filter (fun (id', _) -> id' <> id) t.egress

let tx_blocked t = t.tx_blocked

let rx_frames t = t.rx_frames

let rx_unmatched t = t.rx_unmatched

let filters t = List.length t.filters

let install_offload t pipe ~sink = t.offload <- Some (pipe, sink)

let offload_pipe t = Option.map fst t.offload
