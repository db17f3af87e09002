open Psd_mbuf

type key = { src : Addr.t; dst : Addr.t; proto : int; ident : int }

type datagram = {
  mutable frags : (int * Mbuf.t) list; (* (offset, payload) newest first *)
  mutable total : int option; (* payload length, known once MF=0 seen *)
}

type t = {
  eng : Psd_sim.Engine.t;
  timeout_ns : int;
  table : (key, datagram) Hashtbl.t;
  mutable timed_out : int;
  mutable dropped_inconsistent : int;
}

let create eng ?(timeout_ns = Psd_sim.Time.sec 30) () =
  {
    eng;
    timeout_ns;
    table = Hashtbl.create 16;
    timed_out = 0;
    dropped_inconsistent = 0;
  }

let key_of (h : Header.t) =
  { src = h.src; dst = h.dst; proto = h.proto; ident = h.ident }

(* Coverage check: fragments sorted by offset must tile [0, total). *)
let complete frags total =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) frags in
  let rec walk pos = function
    | [] -> pos >= total
    | (off, m) :: rest ->
      if off > pos then false else walk (Int.max pos (off + Mbuf.length m)) rest
  in
  walk 0 sorted

let assemble frags total =
  let flat = Bytes.create total in
  (* Reassembly is the one receive-side operation that inherently
     flattens: fragments land at their offsets in a fresh buffer
     (oldest first so that later arrivals win overlaps), one copy per
     fragment byte — counted as such. The result wraps the fresh buffer
     without a further copy. *)
  Psd_util.Copies.count Psd_util.Copies.Rx_flatten total;
  List.iter
    (fun (off, m) ->
      let len = Int.min (Mbuf.length m) (total - off) in
      if len > 0 then
        Mbuf.blit_to_bytes (Mbuf.sub_view m ~off:0 ~len) flat off)
    (List.rev frags);
  Mbuf.of_bytes_view flat ~off:0 ~len:total

let input t (h : Header.t) payload =
  if (not h.more_frags) && h.frag_off = 0 then Some (h, payload)
  else begin
    let key = key_of h in
    let dg =
      match Hashtbl.find_opt t.table key with
      | Some dg -> dg
      | None ->
        let dg = { frags = []; total = None } in
        (* The timer outlives a completed datagram: it times out only
           this one, not a later datagram under the same key. *)
        Psd_sim.Engine.schedule t.eng t.timeout_ns (fun () ->
            match Hashtbl.find_opt t.table key with
            | Some dg' when dg' == dg ->
              Hashtbl.remove t.table key;
              t.timed_out <- t.timed_out + 1
            | _ -> ());
        Hashtbl.add t.table key dg;
        dg
    in
    (* The datagram's length is fixed by the first MF=0 fragment seen
       and never rewritten: a duplicated-then-corrupted final whose
       offset shrank must not pull [total] below data already received
       and assemble a truncated datagram. Fragments that contradict the
       established length (a different final, or data beyond the end)
       are dropped and counted. *)
    let frag_end = h.frag_off + Mbuf.length payload in
    let consistent =
      match dg.total with
      | Some total ->
        if h.more_frags then frag_end <= total else frag_end = total
      | None ->
        h.more_frags
        || List.for_all (fun (off, m) -> off + Mbuf.length m <= frag_end)
             dg.frags
    in
    if not consistent then begin
      t.dropped_inconsistent <- t.dropped_inconsistent + 1;
      None
    end
    else begin
      dg.frags <- (h.frag_off, payload) :: dg.frags;
      if (not h.more_frags) && dg.total = None then
        dg.total <- Some frag_end;
      match dg.total with
      | Some total when complete dg.frags total ->
        Hashtbl.remove t.table key;
        let whole = assemble dg.frags total in
        let header =
          {
            h with
            more_frags = false;
            frag_off = 0;
            total_len = Header.size + total;
          }
        in
        Some (header, whole)
      | _ -> None
    end
  end

let pending t = Hashtbl.length t.table

let timed_out t = t.timed_out

let dropped_inconsistent t = t.dropped_inconsistent
