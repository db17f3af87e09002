module Tbl = Psd_ip.Addr.Tbl

type entry = { mac : Psd_link.Macaddr.t; mutable expires : int }

type t = {
  eng : Psd_sim.Engine.t;
  ttl_ns : int;
  table : entry Tbl.t;
  mutable subscribers : (Psd_ip.Addr.t -> unit) list;
}

let create eng ?(ttl_ns = Psd_sim.Time.sec (20 * 60)) () =
  { eng; ttl_ns; table = Tbl.create 16; subscribers = [] }

let notify t ip = List.iter (fun f -> f ip) t.subscribers

let lookup t ip =
  match Tbl.find_opt t.table ip with
  | None -> None
  | Some e ->
    if Psd_sim.Engine.now t.eng >= e.expires then begin
      Tbl.remove t.table ip;
      notify t ip;
      None
    end
    else Some e.mac

let insert t ip mac =
  let expires = Psd_sim.Engine.now t.eng + t.ttl_ns in
  Tbl.replace t.table ip { mac; expires };
  notify t ip

type confirmed = Absent | Confirmed | Changed

(* [lookup], then [insert] of the same mapping when the MAC at [off] is
   the entry's: the entry is refreshed in place, which leaves the table
   as [Tbl.replace] would. The MAC is compared byte by byte. *)
let confirm t ip b off =
  match Tbl.find_opt t.table ip with
  | None -> Absent
  | Some e ->
    let now = Psd_sim.Engine.now t.eng in
    if now >= e.expires then begin
      Tbl.remove t.table ip;
      notify t ip;
      Absent
    end
    else if Psd_link.Macaddr.equal_bytes e.mac b off then begin
      e.expires <- now + t.ttl_ns;
      notify t ip;
      Confirmed
    end
    else Changed

let invalidate t ip =
  if Tbl.mem t.table ip then begin
    Tbl.remove t.table ip;
    notify t ip
  end

let subscribe t f = t.subscribers <- f :: t.subscribers

let entries t =
  let now = Psd_sim.Engine.now t.eng in
  Tbl.fold
    (fun ip e acc -> if now < e.expires then (ip, e.mac) :: acc else acc)
    t.table []

let size t = List.length (entries t)
