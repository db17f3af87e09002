type t = Shared | Duplex of { shards : int; domains : bool }

let prop_ns = Psd_sim.Time.ms 1

let shards = function Shared -> 1 | Duplex d -> d.shards

let segment t shard ?bps () =
  match t with
  | Shared -> Psd_link.Segment.create (Psd_sim.Shard.engine shard 0) ?bps ()
  | Duplex _ -> Psd_link.Segment.create_duplex shard ?bps ~prop_ns ()

let install_faults t ~seed shard fault ~segments ~hosts =
  match fault with
  | Some policy when not (Psd_link.Fault.is_null policy) -> (
    match t with
    | Shared ->
      let rng = Psd_sim.Engine.rng (Psd_sim.Shard.engine shard 0) in
      List.map
        (fun seg ->
          let f = Psd_link.Fault.create ~rng:(Psd_util.Rng.split rng) policy in
          Psd_link.Segment.set_fault seg (Some f);
          f)
        segments
    | Duplex _ ->
      List.mapi
        (fun i sys ->
          let f =
            Psd_link.Fault.create
              ~rng:(Psd_util.Rng.create ~seed:(seed + (7919 * (i + 1))))
              policy
          in
          Psd_mach.Netdev.set_fault (Psd_core.System.netdev sys) (Some f);
          f)
        hosts)
  | _ -> []

let injected faults =
  List.fold_left
    (fun acc f -> acc + Psd_link.Fault.injected (Psd_link.Fault.stats f))
    0 faults

let run_for t shard dt =
  let domains = match t with Shared -> false | Duplex d -> d.domains in
  Psd_sim.Shard.run_for ~domains shard dt
