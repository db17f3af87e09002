(** Reference values transcribed from the paper, used to print
    paper-vs-measured comparisons and to choose per-configuration
    parameters (receive buffer sizes). *)

type machine = Dec | Gateway

val platform : machine -> Psd_cost.Platform.t
(** The calibrated platform of a testbed machine. *)

val best_rcv_buf : machine -> Psd_cost.Config.t -> int
(** The "Receive Buffer Size" column of Table 2/3 (bytes; the paper's
    120 KB entries are clamped to the 64 KB limit a 16-bit window can
    advertise). *)

val table2_throughput : machine -> string -> float option
(** Paper TCP throughput in KB/s by configuration label. *)

val table2_tcp_latency : machine -> string -> int -> float option
(** Paper TCP round-trip latency in ms by label and message size. *)

val table2_udp_latency : machine -> string -> int -> float option

val table3_throughput : string -> float option
(** DECstation NEWAPI table. *)

val table3_tcp_latency : string -> int -> float option

val table3_udp_latency : string -> int -> float option

val tcp_sizes : int list
(** Message sizes of the latency columns: 1, 100, 512, 1024, 1460. *)

val udp_sizes : int list
(** 1, 100, 512, 1024, 1472. *)

val table4_cell : string -> proto:string -> size:int -> string -> int option
(** [table4_cell impl ~proto ~size phase_label] is the paper's Table 4
    entry in microseconds; [impl] is ["Library"], ["Kernel"] or
    ["Server"]. *)
