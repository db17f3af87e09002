open Psd_cost

type rx_mode = Rx_full_copy | Rx_deferred

type filter_id = int

type sink = Enqueue of (Bytes.t -> unit) | May_block of (Bytes.t -> unit)

type filter = {
  id : filter_id;
  prio : int;
  matcher : Bytes.t -> int * int;  (* (accepted_bytes, instructions) *)
  sink : sink;
}

type t = {
  host : Host.t;
  nic : Psd_link.Segment.nic;
  mutable mode : rx_mode;
  mutable filters : filter list; (* by prio, newest first among equals *)
  mutable egress : filter list;
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
   → demultiplex → filter charge → sink. Only a [May_block] sink
   ([Pktchan.deliver] charges the kernel and waits in the Library and
   Server placements, then sends to the mailbox the receiving stack
   serves) runs under the fiber effect handler; an [Enqueue]
   sink runs inline, then the task ends as the handler's return would
   end it. The charges go through the continuation forms, which draw the
   same sequence numbers as a fiber's [Ctx.charge_at]; the stages are
   static functions of one record per frame, so a charge that completes
   inline allocates nothing. *)
type rx = { dev : t; frame : Bytes.t; mutable hit : filter option }

let sink r =
  match r.hit with
  | Some { sink = Enqueue k; _ } ->
    k r.frame;
    Psd_sim.Engine.Task.finish r.dev.intr
  | Some { sink = May_block k; _ } ->
    Psd_sim.Engine.Task.tail r.dev.intr k r.frame
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

let create host segment ~mac =
  let nic = Psd_link.Segment.attach_on segment ~eng:(Host.eng host) ~mac in
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
      | Some (pipe, enqueue) ->
        (* no interrupt, no filter run: the NIC pipeline carries the
           frame and the stack sees it at pipeline completion; the body
           reaches the host only by DMA into a loaned buffer *)
        t.rx_frames <- t.rx_frames + 1;
        Nicpipe.admit_deliver pipe ~dir:Nicpipe.Rx ~len:(Bytes.length frame)
          (fun () -> enqueue frame)
      | None ->
        Psd_sim.Engine.Task.start t.intr intr { dev = t; frame; hit = None });
  t

let mac t = Psd_link.Segment.mac t.nic

let wire_busy_ns t = Psd_link.Segment.nic_busy_ns t.nic

let set_rx_mode t mode = t.mode <- mode

let set_fault t f = Psd_link.Segment.set_nic_fault t.nic f

type matcher = Flat of Psd_bpf.Filter.flat | Program of Psd_bpf.Vm.program

(* The demultiplexing fast-path ladder, chosen once at install time: a
   flat descriptor (session filters: a few direct byte comparisons; the
   ARP and all-IP wildcards: one ethertype read), or a program validated
   and compiled to closures. Both report the executed-instruction count
   the interpreter ([Vm], kept as the test reference) would have
   produced, so the charged virtual time is identical whichever runs. *)
let make_matcher what = function
  | Flat f -> fun frame -> Psd_bpf.Filter.flat_run f frame
  | Program prog ->
    (match Psd_bpf.Vm.validate prog with
    | Ok () -> ()
    | Error e ->
      invalid_arg
        (Format.asprintf "Netdev.%s: invalid filter: %a" what
           Psd_bpf.Vm.pp_error e));
    let c = Psd_bpf.Compile.compile_exn prog in
    fun frame -> Psd_bpf.Compile.run c frame

(* Ahead of the first filter whose [prio] is at least [f.prio]: by [prio],
   newest first among equals (what a stable sort of [f :: filters]
   gives), in time proportional to the new filter's rank. *)
let rec insert f = function
  | g :: rest when g.prio < f.prio -> g :: insert f rest
  | l -> f :: l

(* Drop filter [id], sharing the list after it. *)
let rec remove id = function
  | [] -> []
  | f :: rest -> if f.id = id then rest else f :: remove id rest

let make_filter t what ?(prio = 10) m ~sink =
  let matcher = make_matcher what m in
  let id = t.next_id in
  t.next_id <- id + 1;
  { id; prio; matcher; sink }

let attach t ?prio m ~sink =
  let f = make_filter t "attach" ?prio m ~sink in
  t.filters <- insert f t.filters;
  f.id

let detach t id = t.filters <- remove id t.filters

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
        (fun f ->
          let accept, steps = f.matcher frame in
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
  let f = make_filter t "attach_egress" (Program prog) ~sink:(Enqueue ignore) in
  t.egress <- f :: t.egress;
  f.id

let tx_blocked t = t.tx_blocked

let rx_frames t = t.rx_frames

let rx_unmatched t = t.rx_unmatched

let filters t = List.length t.filters

(* the pipeline hands a frame over from a plain event, with no fiber
   effect handler for a sink to block under *)
let install_offload t pipe ~sink =
  match sink with
  | Enqueue enqueue -> t.offload <- Some (pipe, enqueue)
  | May_block _ -> invalid_arg "Netdev.install_offload: the sink may block"

let offload_pipe t = Option.map fst t.offload
