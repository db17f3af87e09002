open Psd_cost

type kind = Ipc | Shm of int

(* Where delivered packets wait: an unbounded queue for [Ipc], a ring
   that tail-drops when full for [Shm]. *)
type store = Unbounded of Bytes.t Queue.t | Bounded of Bytes.t Psd_util.Ring.t

type t = {
  host : Host.t;
  (* NEWAPI shared-buffer mode: the rx ring pages (or the IPC message's
     receive side) are memory the application loaned to the channel, so
     the deposit is counted at the [Rx_loan] API-boundary site instead
     of a body-copy site. Virtual-time charges are identical either
     way — only the copy bookkeeping moves. *)
  newapi : bool;
  store : store;
  cond : Psd_sim.Cond.t;
  deliver_fixed : int;
  deliver_per_byte : int;
  mutable waiting : int;
  mutable dropped : int;
  mutable wakeups : int;
  mutable delivered : int;
}

let create ?(newapi = false) host ~kind ~deliver_fixed ~deliver_per_byte =
  {
    host;
    newapi;
    store =
      (match kind with
      | Ipc -> Unbounded (Queue.create ())
      | Shm cap -> Bounded (Psd_util.Ring.create ~capacity:cap));
    cond = Psd_sim.Cond.create (Host.eng host);
    deliver_fixed;
    deliver_per_byte;
    waiting = 0;
    dropped = 0;
    wakeups = 0;
    delivered = 0;
  }

let kctx t = Host.kernel_ctx t.host

let deliver t pkt =
  let plat = Host.plat t.host in
  let len = Bytes.length pkt in
  match t.store with
  | Unbounded q ->
    (* per-packet message: base cost + copies + unconditional dispatch *)
    Ctx.charge_at (kctx t) Psd_sim.Cpu.Kernel Phase.Kernel_copyout
      (t.deliver_fixed + plat.Platform.ipc_msg + plat.Platform.wakeup_kernel
      + (len * (t.deliver_per_byte + plat.Platform.ipc_per_byte)));
    (* two physical passes, mirroring deliver_per_byte + ipc_per_byte.
       Under the NEWAPI the message body is received into
       application-loaned pages, so the second pass is the loan deposit
       (API boundary), not a body copy. *)
    if t.newapi then begin
      Psd_util.Copies.count Psd_util.Copies.Rx_ipc ~n:1 len;
      Psd_util.Copies.count Psd_util.Copies.Rx_loan ~n:1 len
    end
    else Psd_util.Copies.count Psd_util.Copies.Rx_ipc ~n:2 (2 * len);
    Queue.push pkt q;
    t.delivered <- t.delivered + 1;
    t.wakeups <- t.wakeups + 1;
    Psd_sim.Cond.signal t.cond
  | Bounded ring ->
    Ctx.charge_at (kctx t) Psd_sim.Cpu.Kernel Phase.Kernel_copyout
      (t.deliver_fixed + (len * t.deliver_per_byte));
    if Psd_util.Ring.push ring pkt then begin
      (* NEWAPI: the ring pages are application-loaned receive buffers,
         so this deposit is the placement into app memory *)
      if t.newapi then Psd_util.Copies.count Psd_util.Copies.Rx_loan len
      else Psd_util.Copies.count Psd_util.Copies.Rx_ring len;
      t.delivered <- t.delivered + 1;
      (* lightweight condition: wake only a blocked receiver *)
      if t.waiting > 0 then begin
        t.wakeups <- t.wakeups + 1;
        Ctx.charge_at (kctx t) Psd_sim.Cpu.Kernel Phase.Kernel_copyout
          plat.Platform.wakeup_kernel;
        Psd_sim.Cond.signal t.cond
      end
    end
    else t.dropped <- t.dropped + 1

let pop t =
  match t.store with
  | Unbounded q -> Queue.take_opt q
  | Bounded ring -> Psd_util.Ring.pop ring

let rec recv t =
  match pop t with
  | Some pkt -> pkt
  | None ->
    t.waiting <- t.waiting + 1;
    Psd_sim.Cond.wait t.cond;
    t.waiting <- t.waiting - 1;
    recv t

(* Drain everything already queued, oldest first, without blocking —
   the paper's SHM batching observable: a receiver woken once consumes
   the whole packet train that accumulated while it ran. *)
let drain t =
  let rec go acc =
    match pop t with Some pkt -> go (pkt :: acc) | None -> List.rev acc
  in
  go []

(* Blocking batch receive. Identical event sequence to per-packet
   [recv]: popping a non-empty queue never blocks or charges, and the
   waiting++/wait/waiting-- discipline on empty is [recv]'s own — so
   wakeup accounting (and therefore virtual time) is unchanged, only the
   number of OCaml-level loop iterations per wakeup drops. *)
let recv_batch t =
  match drain t with
  | [] ->
    let pkt = recv t in
    pkt :: drain t
  | pkts -> pkts

let queued t =
  match t.store with
  | Unbounded q -> Queue.length q
  | Bounded ring -> Psd_util.Ring.length ring

let dropped t = t.dropped

let wakeups t = t.wakeups

let delivered t = t.delivered
