(** The latency-breakdown components of the paper's Table 4.

    Every CPU charge in the stack is attributed to one of these phases so
    the breakdown experiment can print the same rows the paper reports. *)

type t =
  | Entry_copyin  (** socket-layer entry + move user data into mbufs *)
  | Proto_output  (** tcp_output / udp_output *)
  | Ip_output
  | Ether_output  (** encapsulate + hand to the device *)
  | Device_intr  (** field the receive interrupt, read the device *)
  | Netisr_filter  (** demultiplex: netisr or packet-filter run *)
  | Kernel_copyout  (** deliver packet to the destination address space *)
  | Mbuf_queue  (** wrap as mbuf chain, queue on the input queue *)
  | Ip_intr
  | Proto_input  (** tcp_input / udp_input *)
  | Wakeup  (** pass control to the thread awaiting data *)
  | Copyout_exit  (** copy to the caller's buffer and leave the stack *)
  | Wire  (** network transit *)
  | Control  (** session setup / teardown / migration — not in Table 4 *)
  | Desc_crossing
      (** host<->NIC descriptor-queue crossing under the Offload
          placement — not in the paper's Table 4 *)

val all : t list
(** In Table 4 row order, [Control] and [Desc_crossing] last. *)

val label : t -> string
