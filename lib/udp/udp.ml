open Psd_util
open Psd_mbuf
open Psd_cost

type datagram = {
  src : Psd_ip.Addr.t;
  src_port : int;
  dst : Psd_ip.Addr.t;
  payload : Mbuf.t;
}

type stats = {
  mutable udp_out : int;
  mutable udp_in : int;
  mutable udp_drop_checksum : int;
  mutable udp_drop_malformed : int;
  mutable udp_drop_no_port : int;
}

type pcb = {
  owner : t;
  mutable port : int;
  mutable peer : (Psd_ip.Addr.t * int) option;
  receive : datagram -> unit;
  mutable dead : bool;
  mutable soft_error : string option;
}

and t = {
  ctx : Ctx.t;
  ip : Psd_ip.Ip.t;
  ports : (int, pcb list) Hashtbl.t;
  mutable unreachable_hook : (src:Psd_ip.Addr.t -> original:Bytes.t -> unit) option;
  st : stats;
}

let header_size = 8

let stats t = t.st

let charge_out t len =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Proto_output
    (plat.Platform.udp_fixed + (2 * t.ctx.Ctx.sync_ns)
    + (plat.Platform.checksum_per_byte * (header_size + len)))

let charge_in t len =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Proto_input
    (plat.Platform.udp_fixed + (2 * t.ctx.Ctx.sync_ns)
    + (plat.Platform.checksum_per_byte * (header_size + len))
    + plat.Platform.mbuf_op)

(* Demultiplex: a connected PCB matching the source exactly wins over a
   wildcard (unconnected) PCB on the same port. *)
let find_pcb t ~port ~src ~src_port =
  match Hashtbl.find_opt t.ports port with
  | None -> None
  | Some pcbs -> (
    let connected =
      List.find_opt
        (fun p ->
          match p.peer with
          | Some (ip, pt) -> Psd_ip.Addr.equal ip src && pt = src_port
          | None -> false)
        pcbs
    in
    match connected with
    | Some p -> Some p
    | None -> List.find_opt (fun p -> p.peer = None) pcbs)

let input t ~(hdr : Psd_ip.Header.t) (m : Mbuf.t) =
  let len = Mbuf.length m in
  charge_in t (Int.max 0 (len - header_size));
  (* fast path: delivered datagrams arrive as one contiguous view, so
     the header, checksum and payload are read in place; only a
     reassembled multi-segment chain still flattens *)
  let flat, base =
    match Mbuf.contiguous m with
    | Some (b, off, _) -> (b, off)
    | None ->
      Psd_util.Copies.count Psd_util.Copies.Rx_flatten len;
      (Mbuf.to_bytes m, 0)
  in
  if len < header_size then
    (* too short to even carry a header: malformed, not a checksum miss *)
    t.st.udp_drop_malformed <- t.st.udp_drop_malformed + 1
  else begin
    let src_port = Codec.get_u16 flat base in
    let dst_port = Codec.get_u16 flat (base + 2) in
    let udp_len = Codec.get_u16 flat (base + 4) in
    let cksum = Codec.get_u16 flat (base + 6) in
    (* A length field shorter than the header or longer than the IP
       payload can never checksum correctly by accident of data — it is
       a framing error, counted apart from checksum mismatches so
       corruption-injection statistics stay trustworthy. *)
    if udp_len < header_size || udp_len > len then
      t.st.udp_drop_malformed <- t.st.udp_drop_malformed + 1
    else begin
    let valid =
      if cksum = 0 then true (* checksum not computed by sender *)
      else begin
        let acc =
          Psd_ip.Header.pseudo_checksum ~src:hdr.Psd_ip.Header.src
            ~dst:hdr.Psd_ip.Header.dst ~proto:Psd_ip.Header.proto_udp
            ~len:udp_len
        in
        let acc = Checksum.add_bytes acc flat ~off:base ~len:udp_len in
        Checksum.finish acc = 0
      end
    in
    if not valid then
      t.st.udp_drop_checksum <- t.st.udp_drop_checksum + 1
    else
      match
        find_pcb t ~port:dst_port ~src:hdr.Psd_ip.Header.src ~src_port
      with
      | None ->
        t.st.udp_drop_no_port <- t.st.udp_drop_no_port + 1;
        (match t.unreachable_hook with
        | Some hook ->
          (* reconstruct the offending IP packet (header + first bytes of
             the datagram) for the ICMP destination-unreachable body *)
          let keep = Int.min len (Psd_ip.Header.size + 8) in
          let original = Bytes.create (Psd_ip.Header.size + keep) in
          Psd_ip.Header.encode_into original ~off:0
            { hdr with Psd_ip.Header.total_len = Psd_ip.Header.size + len };
          Bytes.blit flat base original Psd_ip.Header.size keep;
          hook ~src:hdr.Psd_ip.Header.src
            ~original:(Bytes.sub original 0 (Psd_ip.Header.size + keep))
        | None -> ())
      | Some pcb ->
        t.st.udp_in <- t.st.udp_in + 1;
        (* zero-copy: the payload is a view into the delivered frame *)
        let payload =
          Mbuf.of_bytes_view flat ~off:(base + header_size)
            ~len:(udp_len - header_size)
        in
        pcb.receive
          {
            src = hdr.Psd_ip.Header.src;
            src_port;
            dst = hdr.Psd_ip.Header.dst;
            payload;
          }
    end
  end

let create ~ctx ~ip () =
  let t =
    {
      ctx;
      ip;
      ports = Hashtbl.create 16;
      unreachable_hook = None;
      st =
        {
          udp_out = 0;
          udp_in = 0;
          udp_drop_checksum = 0;
          udp_drop_malformed = 0;
          udp_drop_no_port = 0;
        };
    }
  in
  Psd_ip.Ip.register ip ~proto:Psd_ip.Header.proto_udp (fun ~hdr m ->
      input t ~hdr m);
  t

let bind t ~port ~receive =
  let existing = Option.value (Hashtbl.find_opt t.ports port) ~default:[] in
  (* Two wildcard PCBs on one port would be ambiguous. *)
  if List.exists (fun p -> p.peer = None) existing then Error `Port_in_use
  else begin
    let pcb =
      { owner = t; port; peer = None; receive; dead = false;
        soft_error = None }
    in
    Hashtbl.replace t.ports port (pcb :: existing);
    Ok pcb
  end

let connect pcb ip port = pcb.peer <- Some (ip, port)

let set_unreachable_hook t f = t.unreachable_hook <- Some f

let take_error pcb =
  let e = pcb.soft_error in
  pcb.soft_error <- None;
  e

(* an ICMP port-unreachable arrived for a datagram we sent to
   [dst]:[port] — surface it on connected PCBs naming that peer *)
let notify_unreachable t ~dst ~port =
  Hashtbl.iter
    (fun _ pcbs ->
      List.iter
        (fun p ->
          match p.peer with
          | Some (ip, pt) when Psd_ip.Addr.equal ip dst && pt = port ->
            p.soft_error <- Some "connection refused"
          | _ -> ())
        pcbs)
    t.ports

let max_datagram = 0xffff - header_size

let send pcb ?dst m =
  let t = pcb.owner in
  let destination = match dst with Some d -> Some d | None -> pcb.peer in
  match destination with
  | None -> Error `No_destination
  | Some (dst_ip, dst_port) ->
    let len = Mbuf.length m in
    if len > max_datagram then Error `Too_big
    else begin
      charge_out t len;
      let udp_len = header_size + len in
      let buf, off = Mbuf.prepend m header_size in
      Codec.set_u16 buf off pcb.port;
      Codec.set_u16 buf (off + 2) dst_port;
      Codec.set_u16 buf (off + 4) udp_len;
      Codec.set_u16 buf (off + 6) 0;
      (* real checksum over pseudo-header + datagram, straight over the
         chain's segments — no flatten *)
      let acc =
        Psd_ip.Header.pseudo_checksum ~src:(Psd_ip.Ip.addr t.ip) ~dst:dst_ip
          ~proto:Psd_ip.Header.proto_udp ~len:udp_len
      in
      let acc = Mbuf.checksum_add m acc in
      let cksum =
        match Checksum.finish acc with 0 -> 0xffff | c -> c
      in
      Codec.set_u16 buf (off + 6) cksum;
      t.st.udp_out <- t.st.udp_out + 1;
      match
        Psd_ip.Ip.output t.ip ~proto:Psd_ip.Header.proto_udp ~dst:dst_ip m
      with
      | Ok () -> Ok ()
      | Error `No_route -> Error `No_route
      | Error (`Too_big | `Would_fragment) -> Error `Too_big
    end

let close t pcb =
  pcb.dead <- true;
  match Hashtbl.find_opt t.ports pcb.port with
  | None -> ()
  | Some pcbs -> (
    match List.filter (fun p -> p != pcb) pcbs with
    | [] -> Hashtbl.remove t.ports pcb.port
    | rest -> Hashtbl.replace t.ports pcb.port rest)
