(** Datapath copy accounting.

    Global, purely observational counters charged at every remaining
    physical data copy ([Bytes.blit]/[Bytes.copy]/[to_string]) on the
    packet path. They quantify the copy discipline the paper argues
    about — SHM-IPF performs exactly one packet-body copy, the
    server-based placement the most — without touching virtual time.
    The counters are atomic, so charges from several domains of a
    sharded run ({!Psd_sim.Shard}) are never lost; being sums, the
    totals are also independent of domain interleaving. *)

type site =
  | Tx_copyin  (** user data copied into mbufs at the socket layer *)
  | Tx_retain  (** send-queue range copied for (re)transmission *)
  | Tx_frame  (** mbuf chain flattened into the outgoing frame *)
  | Tx_rpc  (** send payload copied through RPC messages to the server *)
  | Wire  (** per-receiver frame copy made by the shared segment *)
  | Rx_device  (** driver copy out of device memory (full-copy rx mode) *)
  | Rx_ipc  (** per-packet message: copy into and out of the IPC msg *)
  | Rx_ring  (** packet copied into the shared-memory ring *)
  | Rx_flatten  (** non-contiguous chain flattened for header decode *)
  | Rx_copyout  (** received data copied out to the application string *)
  | Rx_rpc  (** received payload copied through RPC messages *)
  | Rx_loan
      (** NEWAPI: packet deposited directly in application-loaned shared
          memory. Not a body copy — it records the moment the bytes
          became application-visible, replacing the [Rx_copyout] the
          loaned receive path no longer performs. Excluded from
          {!rx_datapath_copies}. *)
  | Tx_owned
      (** NEWAPI: caller-owned send buffer aliased as a shared view
          (ownership transfer until completion). Moves no bytes;
          excluded from {!tx_datapath_copies}. *)

val count : site -> ?n:int -> int -> unit
(** [count site ~n bytes] records [n] copies (default 1) moving [bytes]
    bytes in total at [site]. *)

val copies : site -> int

val bytes : site -> int

val reset : unit -> unit

val all_sites : site list

val all : unit -> (string * int * int) list
(** [(name, copies, bytes)] for every site, in declaration order. *)

val rx_datapath_copies : unit -> int
(** Total packet-body copies between wire delivery and the receiving
    socket buffer (excludes the wire copy itself, the final API copyout
    — identical across placements — and the NEWAPI loan deposit, which
    is the API boundary itself, not a body copy). *)

val tx_datapath_copies : unit -> int
(** Total packet-body copies between the user's send buffer and the
    wire ([Tx_copyin] + [Tx_retain] + [Tx_frame] + [Tx_rpc]). The frame
    gather is included: it is the single body copy the zero-copy send
    path is allowed, so a placement whose tx count is 1 touched the
    payload only while writing the outgoing frame. *)
