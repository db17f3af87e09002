open Psd_mbuf
open Psd_cost

type stats = {
  mutable ip_output : int;
  mutable ip_delivered : int;
  mutable ip_fragmented : int;
  mutable ip_reassembled : int;
  mutable ip_dropped_header : int;
  mutable ip_dropped_proto : int;
  mutable ip_dropped_addr : int;
  mutable ip_no_route : int;
}

type handler = hdr:Header.t -> Mbuf.t -> unit

type transmit = next_hop:Addr.t -> iface:int -> Mbuf.t -> unit

type t = {
  ctx : Ctx.t;
  addr : Addr.t;
  routes : Route.t;
  mutable transmit : transmit;
  handlers : (int, handler) Hashtbl.t;
  reass : Reass.t;
  mutable next_ident : int;
  stats : stats;
}

(* the Ethernet MTU *)
let mtu = 1500

let create ~ctx ~addr ~routes () =
  {
    ctx;
    addr;
    routes;
    transmit = (fun ~next_hop:_ ~iface:_ _ -> ());
    handlers = Hashtbl.create 8;
    reass = Reass.create ctx.Ctx.eng ();
    next_ident = 1;
    stats =
      {
        ip_output = 0;
        ip_delivered = 0;
        ip_fragmented = 0;
        ip_reassembled = 0;
        ip_dropped_header = 0;
        ip_dropped_proto = 0;
        ip_dropped_addr = 0;
        ip_no_route = 0;
      };
  }

let addr t = t.addr

let set_transmit t f = t.transmit <- f

let register t ~proto handler = Hashtbl.replace t.handlers proto handler

let stats t = t.stats

let reass_timed_out t = Reass.timed_out t.reass

let fresh_ident t =
  let id = t.next_ident in
  t.next_ident <- (t.next_ident + 1) land 0xffff;
  id

let prepend_header t ~hdr m =
  ignore t;
  let buf, off = Mbuf.prepend m Header.size in
  Header.encode_into buf ~off hdr

let max_payload = 0xffff - Header.size

let output t ?(ttl = 64) ?(dont_frag = false) ~proto ~dst payload =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Ip_output
    (plat.Platform.ip_fixed + plat.Platform.route_lookup);
  let src = t.addr in
  let len = Mbuf.length payload in
  if len > max_payload then Error `Too_big
  else
    match Route.lookup t.routes dst with
    | None ->
      t.stats.ip_no_route <- t.stats.ip_no_route + 1;
      Error `No_route
    | Some (next_hop, iface) ->
      let ident = fresh_ident t in
      let fits = len + Header.size <= mtu in
      if fits then begin
        let hdr =
          {
            Header.src;
            dst;
            proto;
            ttl;
            ident;
            dont_frag;
            more_frags = false;
            frag_off = 0;
            total_len = Header.size + len;
          }
        in
        prepend_header t ~hdr payload;
        t.stats.ip_output <- t.stats.ip_output + 1;
        t.transmit ~next_hop ~iface payload;
        Ok ()
      end
      else if dont_frag then Error `Would_fragment
      else begin
        (* Fragment: payload chunks of the largest 8-byte-aligned size. *)
        let chunk = (mtu - Header.size) land lnot 7 in
        let rec send off =
          if off < len then begin
            let this_len = Int.min chunk (len - off) in
            let more = off + this_len < len in
            (* each fragment is a zero-copy window onto the datagram;
               the per-fragment header prepend allocates its own mbuf,
               so fragments never scribble on each other *)
            let frag = Mbuf.sub_view payload ~off ~len:this_len in
            let hdr =
              {
                Header.src;
                dst;
                proto;
                ttl;
                ident;
                dont_frag = false;
                more_frags = more;
                frag_off = off;
                total_len = Header.size + this_len;
              }
            in
            prepend_header t ~hdr frag;
            t.stats.ip_fragmented <- t.stats.ip_fragmented + 1;
            t.stats.ip_output <- t.stats.ip_output + 1;
            (* each extra fragment costs another header's worth of work *)
            if off > 0 then
              Ctx.charge t.ctx Phase.Ip_output plat.Platform.ip_fixed;
            t.transmit ~next_hop ~iface frag;
            send (off + this_len)
          end
        in
        send 0;
        Ok ()
      end

let input t b ~off ~len =
  let plat = t.ctx.Ctx.plat in
  Ctx.charge t.ctx Phase.Ip_intr plat.Platform.ip_fixed;
  match Header.decode b ~off ~len with
  | Error _ ->
    t.stats.ip_dropped_header <- t.stats.ip_dropped_header + 1
  | Ok hdr ->
    if
      not
        (Addr.equal hdr.dst t.addr
        || Addr.equal hdr.dst Addr.broadcast)
    then t.stats.ip_dropped_addr <- t.stats.ip_dropped_addr + 1
    else begin
      let payload_len = hdr.total_len - Header.size in
      (* zero-copy: wrap the payload bytes in place. The frame buffer is
         this receiver's private copy and is never written after
         delivery, so the view stays valid for as long as TCP
         reassembly or the socket buffer holds it. *)
      let payload =
        Mbuf.of_bytes_view b ~off:(off + Header.size) ~len:payload_len
      in
      let was_fragment = hdr.more_frags || hdr.frag_off > 0 in
      match Reass.input t.reass hdr payload with
      | None -> ()
      | Some (hdr, datagram) -> (
        if was_fragment then
          t.stats.ip_reassembled <- t.stats.ip_reassembled + 1;
        match Hashtbl.find_opt t.handlers hdr.proto with
        | None ->
          t.stats.ip_dropped_proto <- t.stats.ip_dropped_proto + 1
        | Some handler ->
          t.stats.ip_delivered <- t.stats.ip_delivered + 1;
          handler ~hdr datagram)
    end
