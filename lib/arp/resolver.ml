module Tbl = Psd_ip.Addr.Tbl

type waiting = {
  mutable continuations : (Psd_link.Macaddr.t option -> unit) list;
  mutable tries_left : int;
  mutable cancel : Psd_sim.Engine.cancel;
}

type t = {
  eng : Psd_sim.Engine.t;
  cache : Cache.t;
  my_ip : Psd_ip.Addr.t;
  my_mac : Psd_link.Macaddr.t;
  send : dst:Psd_link.Macaddr.t -> Packet.t -> unit;
  retries : int;
  retry_interval_ns : int;
  pending : waiting Tbl.t;
}

let create ~eng ~cache ~my_ip ~my_mac ~send ?(retries = 3)
    ?(retry_interval_ns = Psd_sim.Time.sec 1) () =
  {
    eng;
    cache;
    my_ip;
    my_mac;
    send;
    retries;
    retry_interval_ns;
    pending = Tbl.create 8;
  }

let query t ip =
  t.send ~dst:Psd_link.Macaddr.broadcast
    {
      Packet.op = Packet.Request;
      sender_mac = t.my_mac;
      sender_ip = t.my_ip;
      target_mac = Psd_link.Macaddr.of_string "\x00\x00\x00\x00\x00\x00";
      target_ip = ip;
    }

(* The retry must run in a fiber: query ends in Netdev.transmit, which
   charges cpu time (a Sleep effect), and raw timer events have no
   effect handler. Mirrors the tcp timer idiom. *)
let rec arm_retry t ip w =
  w.cancel <-
    Psd_sim.Engine.after t.eng t.retry_interval_ns (fun () ->
        Psd_sim.Engine.spawn t.eng ~name:"arp-retry" (fun () ->
            if w.tries_left > 0 then begin
              w.tries_left <- w.tries_left - 1;
              query t ip;
              arm_retry t ip w
            end
            else begin
              Tbl.remove t.pending ip;
              List.iter (fun k -> k None) (List.rev w.continuations)
            end))

let resolve t ip k =
  match Cache.lookup t.cache ip with
  | Some mac -> k (Some mac)
  | None -> (
    match Tbl.find_opt t.pending ip with
    | Some w -> w.continuations <- k :: w.continuations
    | None ->
      let w =
        { continuations = [ k ]; tries_left = t.retries; cancel = (fun () -> ()) }
      in
      Tbl.add t.pending ip w;
      query t ip;
      arm_retry t ip w)

let learn t ip mac =
  Cache.insert t.cache ip mac;
  match Tbl.find_opt t.pending ip with
  | None -> ()
  | Some w ->
    Tbl.remove t.pending ip;
    w.cancel ();
    List.iter (fun k -> k (Some mac)) (List.rev w.continuations)

let input t (p : Packet.t) =
  match p.op with
  | Packet.Request ->
    (* Opportunistically learn the sender; reply if the target is us. *)
    if
      Tbl.mem t.pending p.sender_ip || Cache.lookup t.cache p.sender_ip <> None
    then learn t p.sender_ip p.sender_mac;
    if Psd_ip.Addr.equal p.target_ip t.my_ip then
      t.send ~dst:p.sender_mac
        {
          Packet.op = Packet.Reply;
          sender_mac = t.my_mac;
          sender_ip = t.my_ip;
          target_mac = p.sender_mac;
          target_ip = p.sender_ip;
        }
  | Packet.Reply -> learn t p.sender_ip p.sender_mac

(* A who-has broadcast reaches every host on the segment, and nearly all
   of them send nothing back: it asks for another address, from a sender
   that is not pending. [input] then drops it if the sender is not
   cached, or re-inserts the cached mapping. Decide that with int reads,
   before any record or MAC string is built, and finish the two cases
   here: [Cache.confirm] is [Cache.lookup] with its expiry side effect
   (an absent sender: the drop), then [learn]'s [Cache.insert] of the
   same MAC in place (a known sender: the refresh). The pending set is
   empty on nearly every host, so its size is read before the sender is
   hashed. A sender whose MAC changed is left to [input], which repeats
   the checks with no new effect, as a live entry cannot expire within
   the same instant. *)
let try_input_bytes t b ~off ~len =
  len >= Packet.size
  && Psd_util.Codec.get_u16 b off = 1
  && Psd_util.Codec.get_u16 b (off + 2) = 0x0800
  && Psd_util.Codec.get_u16 b (off + 6) = 1
  && Psd_util.Codec.get_u32i b (off + 24) <> Psd_ip.Addr.to_int t.my_ip
  &&
  let sender = Psd_ip.Addr.of_int (Psd_util.Codec.get_u32i b (off + 14)) in
  (Tbl.length t.pending = 0 || not (Tbl.mem t.pending sender))
  && Cache.confirm t.cache sender b (off + 8) <> Cache.Changed

let input_bytes t b ~off ~len =
  if not (try_input_bytes t b ~off ~len) then
    match Packet.decode b ~off ~len with
    | Ok p -> input t p
    | Error _ -> ()

let pending t = Tbl.length t.pending
