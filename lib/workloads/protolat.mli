(** The paper's latency microbenchmark: round-trip time of an N-byte
    message echoed by the remote host, for TCP and UDP. *)

type proto = Tcp | Udp

type result = {
  config : Psd_cost.Config.t;
  proto : proto;
  size : int;
  rounds : int;
  rtt_ms : float;  (** mean round-trip time *)
  na : bool;  (** configuration cannot run this cell (the 386BSD/BNR2SS
                  large-TCP-segment bug, paper Table 2) *)
}

val run :
  ?plat:Psd_cost.Platform.t ->
  ?machine:Paper.machine ->
  ?rounds:int ->
  ?breakdown:Psd_cost.Breakdown.t ->
  proto:proto ->
  size:int ->
  Psd_cost.Config.t ->
  result
(** Default 200 measured round trips after 8 warm-up rounds (ARP
    resolution, handshake, slow start), on engine seed 11. When [breakdown] is supplied it
    is attached to the {e client} host's contexts for the measured rounds
    only — divide its totals by [rounds] for the per-round-trip Table 4
    numbers (wire transit excluded; compute it analytically). *)
