(** Ablation studies for the design choices DESIGN.md calls out.

    Each prints a small table and returns the measurements so tests can
    assert the causal direction. *)

val delivery : unit -> (string * float * float) list
(** Packet-delivery variant at fixed workload: for IPC / SHM / SHM-IPF,
    (label, 8 MB ttcp KB/s, 1-byte UDP RTT ms over 200 rounds). Isolates wakeup batching
    (IPC vs SHM) from copy elimination (SHM vs SHM-IPF). *)

val ack_strategy : unit -> (string * float) list
(** 8 MB ttcp throughput with delayed ACKs (ack every other segment) versus
    ack-immediately — the receiver-processing sensitivity the paper's
    throughput discussion leans on. *)

val sync_weight : ?rounds:int -> unit -> (string * float) list
(** The library placement run with its normal lightweight locks versus
    with the server's simulated-priority-level costs: shows that the
    Table 4 synchronisation gap is causal, not incidental to placement. *)

val bufsize_sweep :
  ?mb:int -> ?sizes_kb:int list -> Psd_cost.Config.t -> (int * float) list
(** Throughput versus receive-buffer size — the sweep the paper ran to
    pick each configuration's best buffer (Table 2's buffer column). *)

val loss_sweep :
  ?mb:int -> unit -> (string * (float * float * int * int) list) list
(** TCP goodput versus injected frame-loss rate (0 to 5%) across all six
    DECstation placements: per configuration, a row of (loss rate,
    KB/s, timer retransmissions, fast retransmits). Deterministic —
    same seed, same fault schedule, same counters. *)

val loss_faults : unit -> (string * float * Ttcp.recovery) list
(** One fault class at a time (drop / duplicate / reorder / corrupt /
    all together) at a 1% rate on 4 MB Library-SHM-IPF transfers, with
    the recovery counters that show which machinery each class
    exercises. *)

val migration_cost : ?conns:int -> ?bytes_per_conn:int -> unit ->
  (string * float) list
(** Cost of session migration amortised against connection lifetime:
    mean per-connection wall time for connect/send/close cycles in the
    Library placement (two migrations per connection) versus the Server
    placement (none). *)
