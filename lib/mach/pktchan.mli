(** Kernel→library packet delivery channels, receive only.

    A [Library] placement carries its delivery variant
    ([Config.Library Pf_ipc | Pf_shm | Pf_shm_ipf]), and [System] builds
    one channel per application from it. The three user/kernel network
    interfaces the paper measures map onto two channel kinds plus a cost
    parameterisation:

    - [Ipc]: one Mach message per packet (Library-IPC). Every delivery
      pays the message cost, and the receiver is scheduled per packet.
    - [Shm cap]: a fixed-size shared-memory ring (Library-SHM and
      Library-SHM-IPF). The kernel copies the packet into the ring and
      signals a lightweight condition variable {e only when the receiver
      is parked} — packet trains amortise the scheduling cost, which is
      exactly why SHM beats IPC on throughput (paper Section 4.1).

    A channel is the delivery cost model only: the packets wait in its
    {!mailbox}, which the receiving stack serves ({!Psd_sim.Mailbox.serve}).
    The served receiver takes the whole queued packet train when it
    wakes and each time it has handled the train it took, so the ring
    holds the packets it has not taken yet.

    The per-byte copy charged at delivery is a parameter because it
    differs between SHM (copy out of a wired kernel buffer) and SHM-IPF
    (deferred copy straight out of device memory).

    There is no transmit direction: the library sends by trap, through
    {!Netdev.transmit} with [~from_user:true]. *)

type t

type kind = Ipc | Shm of int  (** ring capacity *)

val create :
  ?newapi:bool ->
  Host.t ->
  kind:kind ->
  deliver_fixed:int ->
  deliver_per_byte:int ->
  t
(** [~newapi:true] marks the channel's receive memory as loaned by the
    application (the paper's NEWAPI shared-buffer variants): deposits
    are then counted at the [Rx_loan] API-boundary site instead of the
    [Rx_ring]/second-[Rx_ipc] body-copy sites. Pure bookkeeping — the
    virtual-time charges are identical either way. Default [false]. *)

val mailbox : t -> Bytes.t Psd_sim.Mailbox.t
(** Where delivered packets wait for the receiver, which serves it. *)

val deliver : t -> Bytes.t -> unit
(** Kernel side; called from the interrupt/netisr fiber. Charges the
    kernel context under [Kernel_copyout]. IPC channels also pay the
    message cost; full rings drop the packet. A ring delivery to a
    parked receiver also charges the wakeup, and the receiver resumes
    only after it. *)

val queued : t -> int
(** Packets delivered and not yet handled by the receiver. *)

val dropped : t -> int
(** Packets lost to ring overflow since creation. *)

val wakeups : t -> int
(** Scheduler wakeups performed — the batching observable. *)

val delivered : t -> int
