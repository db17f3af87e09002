open Psd_cost

type kind = Ipc | Shm of int

type t = {
  host : Host.t;
  kind : kind;
  (* NEWAPI shared-buffer mode: the rx ring pages (or the IPC message's
     receive side) are memory the application loaned to the channel, so
     the deposit is counted at the [Rx_loan] API-boundary site instead
     of a body-copy site. Virtual-time charges are identical either
     way — only the copy bookkeeping moves. *)
  newapi : bool;
  (* delivered packets the receiver has not handled; for [Shm], the ring
     is the part it has not taken yet *)
  mb : Bytes.t Psd_sim.Mailbox.t;
  deliver_fixed : int;
  deliver_per_byte : int;
  mutable dropped : int;
  mutable wakeups : int;
  mutable delivered : int;
}

let create ?(newapi = false) host ~kind ~deliver_fixed ~deliver_per_byte =
  {
    host;
    kind;
    newapi;
    mb = Psd_sim.Mailbox.create (Host.eng host);
    deliver_fixed;
    deliver_per_byte;
    dropped = 0;
    wakeups = 0;
    delivered = 0;
  }

let mailbox t = t.mb

let kctx t = Host.kernel_ctx t.host

let deliver t pkt =
  let plat = Host.plat t.host in
  let len = Bytes.length pkt in
  match t.kind with
  | Ipc ->
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
    t.delivered <- t.delivered + 1;
    t.wakeups <- t.wakeups + 1;
    Psd_sim.Mailbox.send t.mb pkt
  | Shm cap ->
    Ctx.charge_at (kctx t) Psd_sim.Cpu.Kernel Phase.Kernel_copyout
      (t.deliver_fixed + (len * t.deliver_per_byte));
    (* the ring tail-drops when full *)
    if Psd_sim.Mailbox.untaken t.mb < cap then begin
      (* NEWAPI: the ring pages are application-loaned receive buffers,
         so this deposit is the placement into app memory *)
      if t.newapi then Psd_util.Copies.count Psd_util.Copies.Rx_loan len
      else Psd_util.Copies.count Psd_util.Copies.Rx_ring len;
      t.delivered <- t.delivered + 1;
      (* lightweight condition: wake only a parked receiver, and only
         once the kernel has paid for it *)
      if Psd_sim.Mailbox.parked t.mb then begin
        t.wakeups <- t.wakeups + 1;
        Ctx.charge_at (kctx t) Psd_sim.Cpu.Kernel Phase.Kernel_copyout
          plat.Platform.wakeup_kernel
      end;
      Psd_sim.Mailbox.send t.mb pkt
    end
    else t.dropped <- t.dropped + 1

let queued t = Psd_sim.Mailbox.length t.mb

let dropped t = t.dropped

let wakeups t = t.wakeups

let delivered t = t.delivered
