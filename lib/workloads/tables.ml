module Cfg = Psd_cost.Config

type cell = { ours : float; paper : float option }

type latency_row = {
  label : string;
  tcp_ms : (int * cell option) list;
  udp_ms : (int * cell option) list;
  throughput : cell option;
  rcv_buf : int;
}

let latency_cells ~machine ~rounds ~proto ~paper_of config =
  List.map
    (fun size ->
      let r = Protolat.run ~machine ~rounds ~proto ~size config in
      if r.Protolat.na then (size, None)
      else
        (size, Some { ours = r.Protolat.rtt_ms; paper = paper_of size }))
    (match proto with
    | Protolat.Tcp -> Paper.tcp_sizes
    | Protolat.Udp -> Paper.udp_sizes)

let row ~machine ~mb ~rounds ~paper_tp ~paper_tcp ~paper_udp config =
  let tp = Ttcp.run ~machine ~mb config in
  {
    label = config.Cfg.label;
    throughput =
      Some { ours = tp.Ttcp.kb_per_sec; paper = paper_tp config.Cfg.label };
    rcv_buf = tp.Ttcp.rcv_buf;
    tcp_ms =
      latency_cells ~machine ~rounds ~proto:Protolat.Tcp
        ~paper_of:(paper_tcp config.Cfg.label) config;
    udp_ms =
      latency_cells ~machine ~rounds ~proto:Protolat.Udp
        ~paper_of:(paper_udp config.Cfg.label) config;
  }

let pp_cell fmt = function
  | None -> Format.fprintf fmt "   NA      "
  | Some { ours; paper } -> (
    match paper with
    | Some p -> Format.fprintf fmt "%5.2f/%-5.2f" ours p
    | None -> Format.fprintf fmt "%5.2f/  -  " ours)

let print_rows ~header rows =
  Format.printf "@.=== %s ===@." header;
  Format.printf "%-38s %14s %5s |%s|%s@." "(ours/paper)" "TCP KB/s" "buf"
    " TCP rtt ms: 1 / 100 / 512 / 1024 / max       "
    " UDP rtt ms: 1 / 100 / 512 / 1024 / max";
  List.iter
    (fun r ->
      Format.printf "%-38s" r.label;
      (match r.throughput with
      | Some { ours; paper = Some p } -> Format.printf " %6.0f/%-6.0f" ours p
      | Some { ours; paper = None } -> Format.printf " %6.0f/  -   " ours
      | None -> Format.printf "      NA      ");
      Format.printf " %3dK |" (r.rcv_buf / 1024);
      List.iter (fun (_, c) -> Format.printf "%a " pp_cell c) r.tcp_ms;
      Format.printf "|";
      List.iter (fun (_, c) -> Format.printf "%a " pp_cell c) r.udp_ms;
      Format.printf "@.")
    rows

let table2 ?(machine = Paper.Dec) ?(mb = 16) ?(rounds = 200)
    ?(with_offload = false) () =
  let configs =
    match machine with
    | Paper.Dec -> Cfg.decstation_rows
    | Paper.Gateway -> Cfg.gateway_rows
  in
  let configs = if with_offload then configs @ [ Cfg.offload ] else configs in
  List.map
    (fun c ->
      row ~machine ~mb ~rounds
        ~paper_tp:(Paper.table2_throughput machine)
        ~paper_tcp:(fun label size -> Paper.table2_tcp_latency machine label size)
        ~paper_udp:(fun label size -> Paper.table2_udp_latency machine label size)
        c)
    configs

let table3 ?(mb = 16) ?(rounds = 200) ?(with_offload = false) () =
  let configs =
    if with_offload then Cfg.table3_rows @ [ Cfg.offload ] else Cfg.table3_rows
  in
  List.map
    (fun c ->
      row ~machine:Paper.Dec ~mb ~rounds
        ~paper_tp:Paper.table3_throughput
        ~paper_tcp:(fun label size -> Paper.table3_tcp_latency label size)
        ~paper_udp:(fun label size -> Paper.table3_udp_latency label size)
        c)
    configs

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)

type breakdown_row = {
  phase : string;
  us : (string * int * int option) list;
}

let t4_configs =
  [
    ("Library", Cfg.library_shm_ipf);
    ("Kernel", Cfg.mach25_kernel);
    ("Server", Cfg.ux_server);
  ]

(* [Desc_crossing] exists only under the Offload placement; it is kept
   out of the classic breakdown so the seed Table 4 output is unchanged
   and appended (with the extra column) when the offload row runs. *)
let breakdown_phases =
  List.filter
    (fun p ->
      p <> Psd_cost.Phase.Wire
      && p <> Psd_cost.Phase.Control
      && p <> Psd_cost.Phase.Desc_crossing)
    Psd_cost.Phase.all

let table4_one ?(with_offload = false) ~rounds ~proto ~size () =
  let configs =
    if with_offload then t4_configs @ [ ("Offload", Cfg.offload) ]
    else t4_configs
  in
  let phases =
    if with_offload then breakdown_phases @ [ Psd_cost.Phase.Desc_crossing ]
    else breakdown_phases
  in
  let per_config =
    List.map
      (fun (impl, config) ->
        let b = Psd_cost.Breakdown.create () in
        let r = Protolat.run ~rounds ~breakdown:b ~proto ~size config in
        ignore r;
        (impl, b))
      configs
  in
  let proto_name = match proto with Protolat.Tcp -> "tcp" | Protolat.Udp -> "udp" in
  let rows =
    List.map
      (fun phase ->
        let label = Psd_cost.Phase.label phase in
        {
          phase = label;
          us =
            List.map
              (fun (impl, b) ->
                let ns = Psd_cost.Breakdown.total b phase in
                ( impl,
                  ns / rounds / 1000,
                  Paper.table4_cell impl ~proto:proto_name ~size label ))
              per_config;
        })
      phases
  in
  (* network transit: analytic, same for every implementation *)
  let plat = Psd_cost.Platform.decstation in
  let headers =
    match proto with Protolat.Tcp -> 40 | Protolat.Udp -> 28
  in
  let frame = Int.max 60 (14 + headers + size) in
  let wire_us = Psd_cost.Platform.frame_time plat frame / 1000 in
  rows
  @ [
      {
        phase = Psd_cost.Phase.label Psd_cost.Phase.Wire;
        us =
          List.map
            (fun (impl, _) ->
              ( impl,
                wire_us,
                Paper.table4_cell impl ~proto:proto_name ~size
                  "network transit" ))
            per_config;
      };
    ]

let print_breakdown ~title rows =
  Format.printf "@.--- Table 4: %s (us per round trip; ours/paper) ---@." title;
  Format.printf "%-24s" "layer";
  (match rows with
  | r :: _ -> List.iter (fun (impl, _, _) -> Format.printf " %14s" impl) r.us
  | [] -> ());
  Format.printf "@.";
  let totals = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Format.printf "%-24s" r.phase;
      List.iter
        (fun (impl, us, paper) ->
          let t, tp, any =
            Option.value (Hashtbl.find_opt totals impl) ~default:(0, 0, false)
          in
          Hashtbl.replace totals impl
            ( t + us,
              tp + Option.value paper ~default:0,
              any || paper <> None );
          match paper with
          | Some p -> Format.printf " %6d/%-6d" us p
          | None -> Format.printf " %6d/ -    " us)
        r.us;
      Format.printf "@.")
    rows;
  Format.printf "%-24s" "TOTAL";
  (match rows with
  | r :: _ ->
    List.iter
      (fun (impl, _, _) ->
        let t, tp, any = Hashtbl.find totals impl in
        (* a column with no paper cells at all (the Offload placement)
           totals to NA on the paper side, not 0 *)
        if any then Format.printf " %6d/%-6d" t tp
        else Format.printf " %6d/ -    " t)
      r.us
  | [] -> ());
  Format.printf "@."

let table4 ?(rounds = 200) ?(with_offload = false) () =
  let cases =
    [
      ("TCP 1 byte", Protolat.Tcp, 1);
      ("TCP 1460 bytes", Protolat.Tcp, 1460);
      ("UDP 1 byte", Protolat.Udp, 1);
      ("UDP 1472 bytes", Protolat.Udp, 1472);
    ]
  in
  List.map
    (fun (title, proto, size) ->
      let rows = table4_one ~with_offload ~rounds ~proto ~size () in
      print_breakdown ~title rows;
      rows)
    cases

(* ------------------------------------------------------------------ *)
(* Table 1 and Figure 1                                                 *)

let table1 () =
  Format.printf
    "@.=== Table 1: the proxy interface (library exports / server exports / \
     action) ===@.";
  List.iter
    (fun (proxy, server, action) ->
      Format.printf "  %-28s %-16s %s@." proxy server action)
    [
      ("socket", "proxy_socket", "Create a session managed by the OS.");
      ( "bind",
        "proxy_bind",
        "Set local address. UDP sessions migrate to the application." );
      ( "connect",
        "proxy_connect",
        "Set remote address. UDP and TCP sessions migrate to the \
         application." );
      ("listen", "proxy_listen", "Open passively; the OS awaits connections.");
      ( "accept",
        "proxy_accept",
        "Migrate a passively opened session to the application." );
      ( "send/recv (all variants)",
        "(none)",
        "Transfer data directly; the OS is not involved." );
      ( "fork",
        "proxy_return",
        "Return sessions to the OS before fork duplicates descriptors." );
      ( "select",
        "proxy_status",
        "Notify the OS of readiness changes in application sessions." );
      ( "close",
        "proxy_close",
        "Migrate the session back; the OS runs the shutdown handshake." );
    ]

let figure1 () =
  Format.printf "@.=== Figure 1: component placement by configuration ===@.";
  let describe (c : Cfg.t) =
    let where, input =
      match c.Cfg.placement with
      | Cfg.In_kernel -> ("kernel", "netisr queue (no crossing)")
      | Cfg.Server -> ("UX server task", "packet filter -> server IPC channel")
      | Cfg.Library delivery ->
        ( "per-application library",
          match delivery with
          | Cfg.Pf_ipc -> "packet filter -> one IPC message per packet"
          | Cfg.Pf_shm -> "packet filter -> shared-memory ring, batched wakeups"
          | Cfg.Pf_shm_ipf ->
            "device-integrated packet filter -> shared-memory ring, single \
             copy from device" )
      | Cfg.Offload _ ->
        ( "smart NIC",
          "NIC pipeline -> DMA into loaned buffer -> completion ring" )
    in
    Format.printf "  %-38s stack in %-26s rx: %s@." c.Cfg.label where input;
    match c.Cfg.placement with
    | Cfg.Library _ ->
      Format.printf
        "  %38s control path: proxy -> OS server (naming, \
         connection setup/teardown, routing/ARP metastate, fork/select)@."
        ""
    | _ -> ()
  in
  List.iter describe
    (Cfg.decstation_rows @ [ Cfg.library_newapi_shm_ipf ])
