(** Protocol-placement configurations — the rows of the paper's tables.

    A configuration says {e where} the protocol stack executes
    (kernel / UX-style server / per-application library / smart NIC) and,
    for a library, {e how} incoming packets reach it (per-packet IPC,
    shared-memory ring, or the device-integrated packet filter: the
    [Library] constructor carries that delivery variant), {e which} socket
    API the application uses (the classic copying interface or the
    shared-buffer NEWAPI of Section 4.2), and which historical OS profile
    supplies the cost multipliers. *)

type delivery =
  | Pf_ipc  (** one Mach IPC message per incoming packet *)
  | Pf_shm  (** shared-memory ring; wakeups amortised over packet trains *)
  | Pf_shm_ipf
      (** packet filter integrated with the device driver: the packet body
          is copied once, from device memory straight into the receiving
          address space *)

type placement =
  | In_kernel
  | Server
  | Library of delivery
      (** a protocol library in each application, fed by the kernel
          through this delivery channel *)
  | Offload of Platform.nic
      (** the TCP fast path runs on a smart-NIC model with this compute
          profile; the host sees only a descriptor ring (doorbell +
          completion, loaned rx buffers) *)

type api =
  | Classic  (** BSD sockets: data copied between caller and stack *)
  | Newapi  (** shared buffers between application and protocol stack *)

type os = Mach25 | Ultrix | Bsd386 | Ux | Bnr2ss | Psd

type t = {
  label : string;  (** row label as printed in the tables *)
  placement : placement;
  api : api;
  os : os;
  large_tcp_bug : bool;
      (** 386BSD and BNR2SS could not send large TCP packets; benchmarks
          report NA for the affected cells (paper Table 2). *)
}

(* Named configurations used by the experiments. *)

val mach25_kernel : t
val ultrix_kernel : t
val bsd386_kernel : t
val ux_server : t
val bnr2ss_server : t
val library_ipc : t
val library_shm : t
val library_shm_ipf : t
val library_newapi_ipc : t
val library_newapi_shm : t
val library_newapi_shm_ipf : t

val offload : t
(** Smart-NIC offload with [Platform.nic_default] (four processing
    elements, fine-grained pipeline parallelism). *)

val offload_serial : t
(** Same NIC restricted to one processing element — the per-connection
    serialisation baseline the pipeline speedup is measured against. *)

val decstation_rows : t list
(** The DECstation rows of Table 2, in paper order. *)

val gateway_rows : t list
(** The Gateway 486 rows of Table 2, in paper order. *)

val table3_rows : t list
(** The rows of Table 3 (two in-kernel baselines + three NEWAPI variants). *)

val newapi_rows : t list
(** The three shared-buffer library placements (IPC / SHM / SHM-IPF), in
    paper order — the rows the copy-count experiment appends to show the
    receive body copies reaching zero. *)

val effective_platform : Platform.t -> os -> Platform.t
(** Apply an OS profile's cost multipliers to a hardware platform:
    Ultrix protocol code is slightly slower than Mach 2.5's, 386BSD has
    markedly more expensive interrupt handling and scheduling, BNR2SS
    carries heavier server synchronisation. *)
