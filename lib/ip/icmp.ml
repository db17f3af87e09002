open Psd_util

type msg =
  | Echo_request of { id : int; seq : int; payload : string }
  | Echo_reply of { id : int; seq : int; payload : string }
  | Dest_unreachable of { code : int; original : Bytes.t }

let code_port_unreachable = 3

let encode msg =
  let fill ~ty ~code ~word body =
    let b = Bytes.create (8 + String.length body) in
    Codec.set_u8 b 0 ty;
    Codec.set_u8 b 1 code;
    Codec.set_u16 b 2 0;
    Codec.set_u32i b 4 word;
    Codec.blit_string body b 8;
    let c = Checksum.of_bytes b ~off:0 ~len:(Bytes.length b) in
    Codec.set_u16 b 2 c;
    b
  in
  match msg with
  | Echo_request { id; seq; payload } ->
    fill ~ty:8 ~code:0 ~word:((id lsl 16) lor (seq land 0xffff)) payload
  | Echo_reply { id; seq; payload } ->
    fill ~ty:0 ~code:0 ~word:((id lsl 16) lor (seq land 0xffff)) payload
  | Dest_unreachable { code; original } ->
    fill ~ty:3 ~code ~word:0 (Bytes.to_string original)

let decode b =
  let len = Bytes.length b in
  if len < 8 then Error "icmp: too short"
  else if not (Checksum.valid b ~off:0 ~len) then Error "icmp: bad checksum"
  else begin
    let ty = Codec.get_u8 b 0 and code = Codec.get_u8 b 1 in
    let word = Codec.get_u32i b 4 in
    let body = Bytes.sub_string b 8 (len - 8) in
    match ty with
    | 8 ->
      Ok (Echo_request { id = word lsr 16; seq = word land 0xffff; payload = body })
    | 0 ->
      Ok (Echo_reply { id = word lsr 16; seq = word land 0xffff; payload = body })
    | 3 -> Ok (Dest_unreachable { code; original = Bytes.of_string body })
    | _ -> Error (Printf.sprintf "icmp: unsupported type %d" ty)
  end

type reply_handler = src:Addr.t -> id:int -> seq:int -> payload:string -> unit

type unreachable_handler =
  orig_dst:Addr.t -> orig_proto:int -> orig_dst_port:int -> unit

type stats = {
  mutable echo_requests_in : int;
  mutable echo_replies_in : int;
  mutable unreachable_in : int;
  mutable unreachable_out : int;
  mutable rejected : int;
}

type t = {
  ctx : Psd_cost.Ctx.t;
  ip : Ip.t;
  mutable reply_handlers : reply_handler list;
  mutable unreachable_handlers : unreachable_handler list;
  st : stats;
}

let stats t = t.st

let send t ~dst msg =
  let plat = t.ctx.Psd_cost.Ctx.plat in
  Psd_cost.Ctx.charge t.ctx Psd_cost.Phase.Control
    plat.Psd_cost.Platform.ip_fixed;
  let payload = encode msg in
  ignore
    (Ip.output t.ip ~proto:Header.proto_icmp ~dst
       (Psd_mbuf.Mbuf.of_bytes payload ~off:0 ~len:(Bytes.length payload)))

let ping t ~dst ?(id = 1) ?(seq = 0) () =
  send t ~dst (Echo_request { id; seq; payload = "psd-ping" })

let on_reply t h = t.reply_handlers <- h :: t.reply_handlers

let on_unreachable t h =
  t.unreachable_handlers <- h :: t.unreachable_handlers

let send_port_unreachable t ~dst ~original =
  t.st.unreachable_out <- t.st.unreachable_out + 1;
  (* RFC 792: embed the IP header plus the first 8 payload bytes *)
  let keep = Int.min (Bytes.length original) (Header.size + 8) in
  send t ~dst
    (Dest_unreachable
       { code = code_port_unreachable; original = Bytes.sub original 0 keep })

(* Only port-unreachable means "connection refused"; other codes (host
   or net unreachable, fragmentation needed, ...) are counted and
   otherwise ignored. *)
let handle_unreachable t ~code original =
  t.st.unreachable_in <- t.st.unreachable_in + 1;
  if code = code_port_unreachable then
    match
      Header.decode ~truncated:true original ~off:0
        ~len:(Bytes.length original)
    with
    | Error _ -> ()
    | Ok inner ->
      if Bytes.length original >= Header.size + 4 then begin
        let dst_port = Codec.get_u16 original (Header.size + 2) in
        List.iter
          (fun h ->
            h ~orig_dst:inner.Header.dst ~orig_proto:inner.Header.proto
              ~orig_dst_port:dst_port)
          t.unreachable_handlers
      end

let create ~ctx ~ip () =
  let t =
    {
      ctx;
      ip;
      reply_handlers = [];
      unreachable_handlers = [];
      st =
        {
          echo_requests_in = 0;
          echo_replies_in = 0;
          unreachable_in = 0;
          unreachable_out = 0;
          rejected = 0;
        };
    }
  in
  Ip.register ip ~proto:Header.proto_icmp (fun ~hdr m ->
      match decode (Psd_mbuf.Mbuf.to_bytes m) with
      | Error _ -> t.st.rejected <- t.st.rejected + 1
      | Ok (Echo_request { id; seq; payload }) ->
        t.st.echo_requests_in <- t.st.echo_requests_in + 1;
        send t ~dst:hdr.Header.src (Echo_reply { id; seq; payload })
      | Ok (Echo_reply { id; seq; payload }) ->
        t.st.echo_replies_in <- t.st.echo_replies_in + 1;
        List.iter
          (fun h -> h ~src:hdr.Header.src ~id ~seq ~payload)
          t.reply_handlers
      | Ok (Dest_unreachable { code; original }) ->
        handle_unreachable t ~code original);
  t
