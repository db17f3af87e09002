open Psd_mbuf

type t = {
  eng : Psd_sim.Engine.t;
  hiwat : int;
  data : Mbuf.t;
  mutable eof : bool;
  mutable error : string option;
  nonempty : Psd_sim.Cond.t;
  mutable change_hooks : (unit -> unit) list;
  (* NEWAPI loan accounting: bytes handed out as borrowed views by
     [read_loan] and not yet given back by [loan_return]. Loaned bytes
     have left [data] but the application still holds the pages, so
     they keep counting against [hiwat] — space is reclaimed exactly
     when the loan is returned, never earlier. *)
  mutable loaned : int;
}

let create eng ?(hiwat = 24 * 1024) () =
  {
    eng;
    hiwat;
    data = Mbuf.empty ();
    eof = false;
    error = None;
    nonempty = Psd_sim.Cond.create eng;
    change_hooks = [];
    loaned = 0;
  }

let cc t = Mbuf.length t.data

let space t = Int.max 0 (t.hiwat - cc t - t.loaned)

let loaned t = t.loaned

let changed t =
  Psd_sim.Cond.broadcast t.nonempty;
  List.iter (fun f -> f ()) t.change_hooks

let append t m =
  Mbuf.concat t.data m;
  changed t

let set_eof t =
  t.eof <- true;
  changed t

let set_error t msg =
  t.error <- Some msg;
  changed t

let take t max_bytes =
  let n = Int.min max_bytes (Mbuf.length t.data) in
  Mbuf.split t.data n

let state t =
  if Mbuf.length t.data > 0 then `Data
  else
    match t.error with
    | Some e -> `Error e
    | None -> if t.eof then `Eof else `Empty

let try_read t ~max =
  match state t with
  | `Data ->
    let m = take t max in
    changed t;
    Ok m
  | `Error e -> Error (`Error e)
  | `Eof -> Error `Eof
  | `Empty -> Error `Empty

let read t ~max =
  Psd_sim.Cond.until t.nonempty (fun () ->
      match try_read t ~max with
      | Ok m -> Some (Ok m)
      | Error `Empty -> None
      | Error `Eof -> Some (Error `Eof)
      | Error (`Error e) -> Some (Error (`Error e)))

(* Loaned drain: identical take discipline to [try_read]/[read] — the
   returned chain is whatever segment views are queued, never a
   flattened copy — but the bytes stay charged against [hiwat] until
   the borrower calls [loan_return]. *)
let try_read_loan t ~max =
  match try_read t ~max with
  | Ok m ->
    t.loaned <- t.loaned + Mbuf.length m;
    Ok m
  | err -> err

let read_loan t ~max =
  Psd_sim.Cond.until t.nonempty (fun () ->
      match try_read_loan t ~max with
      | Ok m -> Some (Ok m)
      | Error `Empty -> None
      | Error `Eof -> Some (Error `Eof)
      | Error (`Error e) -> Some (Error (`Error e)))

let loan_return t n =
  if n < 0 then invalid_arg "Sockbuf.loan_return: negative length";
  if n > t.loaned then invalid_arg "Sockbuf.loan_return: not loaned";
  t.loaned <- t.loaned - n;
  if n > 0 then changed t

let readable t = state t <> `Empty

let on_change t f = t.change_hooks <- f :: t.change_hooks

let eof t = t.eof

let error t = t.error

let has_waiters t = Psd_sim.Cond.waiters t.nonempty > 0
