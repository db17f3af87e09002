type machine = Dec | Gateway

let platform = function
  | Dec -> Psd_cost.Platform.decstation
  | Gateway -> Psd_cost.Platform.gateway486

let lbl (c : Psd_cost.Config.t) = c.Psd_cost.Config.label

let kb n = n * 1024

(* Table 2 "ReceiveBufferSize" column; 120KB clamped to the largest
   advertisable 16-bit window. *)
let best_rcv_buf machine c =
  let max_wnd = 65535 in
  match (machine, lbl c) with
  | Dec, "Mach 2.5 In-Kernel" -> kb 24
  | Dec, "Ultrix 4.2A In-Kernel" -> kb 16
  | Dec, "Mach 3.0+UX Server" -> kb 24
  | Dec, "Mach 3.0+UX Library-IPC" -> kb 24
  | Dec, "Mach 3.0+UX Library-SHM" -> max_wnd
  | Dec, "Mach 3.0+UX Library-SHM-IPF" -> max_wnd
  | Dec, "Mach 3.0+UX Library-NEWAPI-IPC" -> kb 24
  | Dec, "Mach 3.0+UX Library-NEWAPI-SHM" -> max_wnd
  | Dec, "Mach 3.0+UX Library-NEWAPI-SHM-IPF" -> max_wnd
  | Gateway, "Mach 2.5 In-Kernel" -> kb 8
  | Gateway, "386BSD In-Kernel" -> kb 8
  | Gateway, "Mach 3.0+UX Server" -> kb 16
  | Gateway, "Mach 3.0+BNR2SS Server" -> max_wnd
  | Gateway, "Mach 3.0+UX Library-IPC" -> kb 24
  | Gateway, "Mach 3.0+UX Library-SHM" -> kb 24
  (* the NIC fast path is never the window bottleneck on either machine *)
  | _, "Smart-NIC Offload" | _, "Smart-NIC Offload (1 PE)" -> max_wnd
  | _ -> kb 24

let tcp_sizes = [ 1; 100; 512; 1024; 1460 ]
let udp_sizes = [ 1; 100; 512; 1024; 1472 ]

(* label -> (throughput, tcp latencies, udp latencies) — Table 2. *)
let dec_rows =
  [
    ( "Mach 2.5 In-Kernel",
      Some 1070.,
      [ 1.40; 1.73; 3.05; 4.56; 6.04 ],
      [ 1.45; 1.74; 3.05; 4.56; 5.88 ] );
    ( "Ultrix 4.2A In-Kernel",
      Some 996.,
      [ 1.52; 1.89; 3.50; 4.78; 6.13 ],
      [ 1.52; 1.81; 3.29; 4.69; 6.05 ] );
    ( "Mach 3.0+UX Server",
      Some 740.,
      [ 3.64; 4.21; 5.90; 7.84; 9.73 ],
      [ 3.64; 4.01; 6.55; 7.99; 9.81 ] );
    ( "Mach 3.0+UX Library-IPC",
      Some 910.,
      [ 1.69; 2.09; 3.43; 5.09; 6.63 ],
      [ 1.40; 1.78; 3.08; 4.71; 6.10 ] );
    ( "Mach 3.0+UX Library-SHM",
      Some 1076.,
      [ 1.82; 2.29; 3.56; 5.32; 6.73 ],
      [ 1.34; 1.68; 2.95; 4.59; 5.95 ] );
    ( "Mach 3.0+UX Library-SHM-IPF",
      Some 1088.,
      [ 1.72; 2.11; 3.44; 5.09; 6.56 ],
      [ 1.23; 1.57; 2.83; 4.41; 5.78 ] );
  ]

let gateway_rows =
  [
    ( "Mach 2.5 In-Kernel",
      Some 457.,
      [ 2.08; 2.69; 5.45; 8.78; 12.05 ],
      [ 1.83; 2.41; 5.19; 8.54; 11.41 ] );
    ( "386BSD In-Kernel",
      Some 320.,
      [ 2.71; 3.64; 6.21; nan; nan ],
      [ 2.63; 3.19; 6.01; 9.45; 12.54 ] );
    ( "Mach 3.0+UX Server",
      Some 415.,
      [ 4.09; 4.88; 7.76; 11.30; 14.29 ],
      [ 3.96; 4.67; 7.80; 11.65; 15.01 ] );
    ( "Mach 3.0+BNR2SS Server",
      Some 382.,
      [ 3.99; 4.70; 8.00; nan; nan ],
      [ 4.61; 5.17; 8.95; 13.24; 16.10 ] );
    ( "Mach 3.0+UX Library-IPC",
      Some 469.,
      [ 2.49; 3.10; 5.84; 9.25; 14.09 ],
      [ 2.12; 2.68; 5.31; 8.74; 11.66 ] );
    ( "Mach 3.0+UX Library-SHM",
      Some 503.,
      [ 2.39; 3.07; 5.79; 9.15; 12.58 ],
      [ 2.02; 2.59; 5.30; 8.64; 11.62 ] );
  ]

(* Table 3: NEWAPI rows plus the two in-kernel baselines (DECstation). *)
let table3_rows =
  [
    ( "Mach 2.5 In-Kernel",
      Some 1070.,
      [ 1.40; 1.73; 3.05; 4.56; 6.04 ],
      [ 1.45; 1.74; 3.05; 4.56; 5.88 ] );
    ( "Ultrix 4.2A In-Kernel",
      Some 996.,
      [ 1.52; 1.89; 3.53; 4.78; 6.13 ],
      [ 1.52; 1.81; 3.29; 4.69; 6.05 ] );
    ( "Mach 3.0+UX Library-NEWAPI-IPC",
      Some 959.,
      [ 1.67; 2.02; 3.35; 4.96; 6.45 ],
      [ 1.42; 1.75; 3.05; 4.69; 6.09 ] );
    ( "Mach 3.0+UX Library-NEWAPI-SHM",
      Some 1083.,
      [ 1.70; 2.07; 3.33; 4.94; 6.38 ],
      [ 1.34; 1.66; 2.93; 4.54; 5.95 ] );
    ( "Mach 3.0+UX Library-NEWAPI-SHM-IPF",
      Some 1099.,
      [ 1.63; 1.98; 3.24; 4.80; 6.26 ],
      [ 1.25; 1.57; 2.83; 4.38; 5.76 ] );
  ]

let rows_for = function Dec -> dec_rows | Gateway -> gateway_rows

let find_row rows label =
  List.find_opt (fun (l, _, _, _) -> String.equal l label) rows

let nth_size sizes size = List.find_index (fun s -> s = size) sizes

let latency_of sizes lats size =
  match nth_size sizes size with
  | Some i ->
    let v = List.nth lats i in
    if Float.is_nan v then None else Some v
  | None -> None

let table2_throughput machine label =
  match find_row (rows_for machine) label with
  | Some (_, tp, _, _) -> tp
  | None -> None

let table2_tcp_latency machine label size =
  match find_row (rows_for machine) label with
  | Some (_, _, tcp, _) -> latency_of tcp_sizes tcp size
  | None -> None

let table2_udp_latency machine label size =
  match find_row (rows_for machine) label with
  | Some (_, _, _, udp) -> latency_of udp_sizes udp size
  | None -> None

let table3_throughput label =
  match find_row table3_rows label with Some (_, tp, _, _) -> tp | None -> None

let table3_tcp_latency label size =
  match find_row table3_rows label with
  | Some (_, _, tcp, _) -> latency_of tcp_sizes tcp size
  | None -> None

let table3_udp_latency label size =
  match find_row table3_rows label with
  | Some (_, _, _, udp) -> latency_of udp_sizes udp size
  | None -> None

(* Table 4, microseconds. (impl, proto, size) -> phase label -> us *)
let table4 =
  [
    (* impl, proto, size, [rows in Phase order] *)
    ("Library", "tcp", 1,
     [ ("entry/copyin", 19); ("tcp,udp_output", 82); ("ip_output", 26);
       ("ether_output", 98); ("device intr/read", 42);
       ("netisr/packet filter", 82); ("kernel copyout", 123);
       ("mbuf/queue", 22); ("ipintr", 37); ("tcp,udp_input", 214);
       ("wakeup user thread", 92); ("copyout/exit", 46);
       ("network transit", 51) ]);
    ("Library", "tcp", 1460,
     [ ("entry/copyin", 203); ("tcp,udp_output", 328); ("ip_output", 26);
       ("ether_output", 274); ("device intr/read", 43);
       ("netisr/packet filter", 95); ("kernel copyout", 534);
       ("mbuf/queue", 21); ("ipintr", 35); ("tcp,udp_input", 445);
       ("wakeup user thread", 95); ("copyout/exit", 261);
       ("network transit", 1214) ]);
    ("Kernel", "tcp", 1,
     [ ("entry/copyin", 50); ("tcp,udp_output", 65); ("ip_output", 24);
       ("ether_output", 75); ("device intr/read", 77);
       ("netisr/packet filter", 79); ("kernel copyout", 0);
       ("mbuf/queue", 0); ("ipintr", 30); ("tcp,udp_input", 76);
       ("wakeup user thread", 54); ("copyout/exit", 32);
       ("network transit", 51) ]);
    ("Kernel", "tcp", 1460,
     [ ("entry/copyin", 153); ("tcp,udp_output", 307); ("ip_output", 20);
       ("ether_output", 105); ("device intr/read", 469);
       ("netisr/packet filter", 73); ("kernel copyout", 0);
       ("mbuf/queue", 0); ("ipintr", 37); ("tcp,udp_input", 270);
       ("wakeup user thread", 54); ("copyout/exit", 220);
       ("network transit", 1214) ]);
    ("Server", "tcp", 1,
     [ ("entry/copyin", 254); ("tcp,udp_output", 224); ("ip_output", 31);
       ("ether_output", 166); ("device intr/read", 101);
       ("netisr/packet filter", 53); ("kernel copyout", 113);
       ("mbuf/queue", 79); ("ipintr", 127); ("tcp,udp_input", 249);
       ("wakeup user thread", 194); ("copyout/exit", 222);
       ("network transit", 51) ]);
    ("Server", "tcp", 1460,
     [ ("entry/copyin", 579); ("tcp,udp_output", 447); ("ip_output", 25);
       ("ether_output", 331); ("device intr/read", 496);
       ("netisr/packet filter", 52); ("kernel copyout", 148);
       ("mbuf/queue", 58); ("ipintr", 95); ("tcp,udp_input", 365);
       ("wakeup user thread", 213); ("copyout/exit", 1028);
       ("network transit", 1214) ]);
    ("Library", "udp", 1,
     [ ("entry/copyin", 6); ("tcp,udp_output", 18); ("ip_output", 17);
       ("ether_output", 105); ("device intr/read", 39);
       ("netisr/packet filter", 58); ("kernel copyout", 107);
       ("mbuf/queue", 20); ("ipintr", 35); ("tcp,udp_input", 103);
       ("wakeup user thread", 73); ("copyout/exit", 21);
       ("network transit", 51) ]);
    ("Library", "udp", 1472,
     [ ("entry/copyin", 7); ("tcp,udp_output", 239); ("ip_output", 18);
       ("ether_output", 280); ("device intr/read", 40);
       ("netisr/packet filter", 70); ("kernel copyout", 517);
       ("mbuf/queue", 20); ("ipintr", 33); ("tcp,udp_input", 318);
       ("wakeup user thread", 80); ("copyout/exit", 63);
       ("network transit", 1214) ]);
    ("Kernel", "udp", 1,
     [ ("entry/copyin", 65); ("tcp,udp_output", 70); ("ip_output", 22);
       ("ether_output", 74); ("device intr/read", 74);
       ("netisr/packet filter", 83); ("kernel copyout", 0);
       ("mbuf/queue", 0); ("ipintr", 30); ("tcp,udp_input", 67);
       ("wakeup user thread", 70); ("copyout/exit", 27);
       ("network transit", 51) ]);
    ("Kernel", "udp", 1472,
     [ ("entry/copyin", 104); ("tcp,udp_output", 273); ("ip_output", 25);
       ("ether_output", 163); ("device intr/read", 481);
       ("netisr/packet filter", 84); ("kernel copyout", 0);
       ("mbuf/queue", 0); ("ipintr", 54); ("tcp,udp_input", 279);
       ("wakeup user thread", 69); ("copyout/exit", 75);
       ("network transit", 1214) ]);
    ("Server", "udp", 1,
     [ ("entry/copyin", 293); ("tcp,udp_output", 229); ("ip_output", 24);
       ("ether_output", 188); ("device intr/read", 99);
       ("netisr/packet filter", 76); ("kernel copyout", 124);
       ("mbuf/queue", 68); ("ipintr", 121); ("tcp,udp_input", 61);
       ("wakeup user thread", 262); ("copyout/exit", 208);
       ("network transit", 51) ]);
    ("Server", "udp", 1472,
     [ ("entry/copyin", 628); ("tcp,udp_output", 398); ("ip_output", 27);
       ("ether_output", 367); ("device intr/read", 497);
       ("netisr/packet filter", 61); ("kernel copyout", 207);
       ("mbuf/queue", 64); ("ipintr", 91); ("tcp,udp_input", 273);
       ("wakeup user thread", 274); ("copyout/exit", 619);
       ("network transit", 1214) ]);
  ]

let table4_cell impl ~proto ~size phase_label =
  match
    List.find_opt (fun (i, p, s, _) -> i = impl && p = proto && s = size)
      table4
  with
  | Some (_, _, _, cells) -> List.assoc_opt phase_label cells
  | None -> None
