type delivery = Pf_ipc | Pf_shm | Pf_shm_ipf

type placement =
  | In_kernel
  | Server
  | Library of delivery
  | Offload of Platform.nic

type api = Classic | Newapi

type os = Mach25 | Ultrix | Bsd386 | Ux | Bnr2ss | Psd

type t = {
  label : string;
  placement : placement;
  api : api;
  os : os;
  large_tcp_bug : bool;
}

let pp_placement fmt = function
  | In_kernel -> Format.fprintf fmt "in-kernel"
  | Server -> Format.fprintf fmt "server"
  | Library _ -> Format.fprintf fmt "library"
  | Offload _ -> Format.fprintf fmt "nic-offload"

let pp fmt t =
  match t.placement with
  | Offload n ->
      Format.fprintf fmt "%s [%a, %s x%d]" t.label pp_placement t.placement
        n.Platform.nic_name n.Platform.pes
  | In_kernel | Server | Library _ -> Format.fprintf fmt "%s" t.label

let make ?(api = Classic) ?(bug = false) label placement os =
  { label; placement; api; os; large_tcp_bug = bug }

let mach25_kernel = make "Mach 2.5 In-Kernel" In_kernel Mach25
let ultrix_kernel = make "Ultrix 4.2A In-Kernel" In_kernel Ultrix
let bsd386_kernel = make ~bug:true "386BSD In-Kernel" In_kernel Bsd386
let ux_server = make "Mach 3.0+UX Server" Server Ux
let bnr2ss_server = make ~bug:true "Mach 3.0+BNR2SS Server" Server Bnr2ss

let library d label = make ("Mach 3.0+UX " ^ label) (Library d) Psd

let library_ipc = library Pf_ipc "Library-IPC"
let library_shm = library Pf_shm "Library-SHM"
let library_shm_ipf = library Pf_shm_ipf "Library-SHM-IPF"

let with_newapi c suffix =
  { c with api = Newapi; label = "Mach 3.0+UX Library-NEWAPI-" ^ suffix }

let library_newapi_ipc = with_newapi library_ipc "IPC"
let library_newapi_shm = with_newapi library_shm "SHM"
let library_newapi_shm_ipf = with_newapi library_shm_ipf "SHM-IPF"

(* The seventh placement: the TCP fast path runs on a smart-NIC model and
   the host sees only a descriptor ring.  The API is necessarily NEWAPI —
   received payloads live in NIC-loaned host buffers, so the classic
   copying interface does not apply.  No packet filter runs on the host,
   so there is no delivery variant. *)
let offload =
  make ~api:Newapi "Smart-NIC Offload" (Offload Platform.nic_default) Psd

let offload_serial =
  make ~api:Newapi "Smart-NIC Offload (1 PE)" (Offload Platform.nic_serial)
    Psd

let decstation_rows =
  [
    mach25_kernel;
    ultrix_kernel;
    ux_server;
    library_ipc;
    library_shm;
    library_shm_ipf;
  ]

let gateway_rows =
  [
    mach25_kernel;
    bsd386_kernel;
    ux_server;
    bnr2ss_server;
    library_ipc;
    library_shm;
  ]

let newapi_rows =
  [ library_newapi_ipc; library_newapi_shm; library_newapi_shm_ipf ]

let table3_rows =
  [
    mach25_kernel;
    ultrix_kernel;
    library_newapi_ipc;
    library_newapi_shm;
    library_newapi_shm_ipf;
  ]

let effective_platform (p : Platform.t) os =
  let scale_proto m (p : Platform.t) =
    {
      p with
      tcp_fixed = p.tcp_fixed * m / 100;
      udp_fixed = p.udp_fixed * m / 100;
      ip_fixed = p.ip_fixed * m / 100;
      ether_fixed = p.ether_fixed * m / 100;
      socket_layer = p.socket_layer * m / 100;
      checksum_per_byte = p.checksum_per_byte * m / 100;
    }
  in
  let scale_intr m (p : Platform.t) =
    {
      p with
      intr = p.intr * m / 100;
      netisr = p.netisr * m / 100;
      wakeup_kernel = p.wakeup_kernel * m / 100;
      wakeup_heavy = p.wakeup_heavy * m / 100;
    }
  in
  let scale_sync m (p : Platform.t) =
    { p with sync_heavy = p.sync_heavy * m / 100 }
  in
  (* Mach 2.5, Ultrix and UX run the 4.3BSD protocols, whose UDP and
     socket layers are markedly heavier than the Net/2 (BNR2) code our
     library, 386BSD and BNR2SS use (paper Section 4, "Platforms"). *)
  let scale_43bsd (p : Platform.t) =
    {
      p with
      udp_fixed = p.udp_fixed * 370 / 100;
      tcp_fixed = p.tcp_fixed * 115 / 100;
      socket_layer = p.socket_layer * 190 / 100;
      ip_fixed = p.ip_fixed * 150 / 100;
      mbuf_alloc = p.mbuf_alloc * 150 / 100;
      netisr = p.netisr * 140 / 100;
      intr = p.intr * 125 / 100;
    }
  in
  match os with
  | Psd -> p
  | Mach25 -> scale_43bsd p
  | Ux -> scale_43bsd p
  | Ultrix -> scale_proto 108 (scale_43bsd p)
  | Bsd386 -> scale_intr 300 (scale_proto 125 p)
  | Bnr2ss -> scale_sync 115 (scale_proto 105 p)
