type seg = {
  buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable shared : bool;
      (* [buf] may be referenced by another segment record (a view of a
         delivered frame, or the far side of a zero-copy [split]).
         The only operation that writes into an existing buffer is
         [prepend]'s headroom reuse, and it must not fire on a shared
         buffer: the bytes ahead of a view belong to someone else. *)
}

(* [total] caches the sum of segment lengths so [length] is O(1) instead
   of an O(segments) fold — it is consulted on nearly every socket-buffer
   and TCP-send-queue operation. Every mutator maintains it. *)
type t = { mutable segs : seg list; mutable total : int }

let mlen = 108
let cluster_size = 2048
let default_headroom = 64

let empty () = { segs = []; total = 0 }

let length t = t.total

let seg_count t = List.length t.segs

let is_empty t = t.total = 0

let of_bytes ?(headroom = default_headroom) b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Mbuf.of_bytes";
  let rec chunks off len acc first =
    if len = 0 then List.rev acc
    else begin
      let room = if first then headroom else 0 in
      let n = Int.min len cluster_size in
      let buf = Bytes.create (room + n) in
      Bytes.blit b off buf room n;
      let s = { buf; off = room; len = n; shared = false } in
      chunks (off + n) (len - n) (s :: acc) false
    end
  in
  let segs =
    if len = 0 then
      (* keep headroom available for header prepends on empty payloads *)
      [ { buf = Bytes.create headroom; off = headroom; len = 0;
          shared = false } ]
    else if headroom + len <= mlen then
      (* small-mbuf case (BSD: data under [mlen] lives in an ordinary
         mbuf, not a cluster): one fixed-size mbuf holds headroom and
         payload, instead of chasing the cluster path for a handful of
         bytes. Segment count and boundaries are identical either way. *)
      let buf = Bytes.create mlen in
      (Bytes.blit b off buf headroom len;
       [ { buf; off = headroom; len; shared = false } ])
    else chunks off len [] true
  in
  { segs; total = len }

let of_string s =
  of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let of_bytes_view b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Mbuf.of_bytes_view";
  { segs = [ { buf = b; off; len; shared = true } ]; total = len }

let prepend t n =
  if n < 0 then invalid_arg "Mbuf.prepend";
  t.total <- t.total + n;
  match t.segs with
  | s :: _ when s.off >= n && not s.shared ->
    s.off <- s.off - n;
    s.len <- s.len + n;
    (s.buf, s.off)
  | segs ->
    let buf = Bytes.create (Int.max n mlen) in
    let off = Bytes.length buf - n in
    let s = { buf; off; len = n; shared = false } in
    t.segs <- s :: segs;
    (buf, off)

let trim_front t n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.trim_front";
  let rec go n segs =
    if n = 0 then segs
    else
      match segs with
      | [] -> assert false
      | s :: rest ->
        if s.len <= n then go (n - s.len) rest
        else begin
          s.off <- s.off + n;
          s.len <- s.len - n;
          segs
        end
  in
  t.segs <- go n t.segs;
  t.total <- t.total - n

let drop_front = trim_front

let trim_back t n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.trim_back";
  let keep = t.total - n in
  let rec go remaining segs =
    match segs with
    | [] -> []
    | s :: rest ->
      if s.len <= remaining then s :: go (remaining - s.len) rest
      else if remaining = 0 then []
      else begin
        s.len <- remaining;
        [ s ]
      end
  in
  t.segs <- go keep t.segs;
  t.total <- keep

let concat a b =
  a.segs <- a.segs @ b.segs;
  a.total <- a.total + b.total;
  b.segs <- [];
  b.total <- 0

let fold_ranges t ~init ~f =
  List.fold_left
    (fun acc s -> if s.len = 0 then acc else f acc s.buf ~off:s.off ~len:s.len)
    init t.segs

(* BSD m_copym. Copies each overlapping source range straight into fresh
   cluster segments — one copy per byte, where the previous
   implementation flattened into an intermediate buffer and then
   re-chunked it (two copies and a throwaway allocation per call; this
   sits on the TCP send path, once per transmitted segment). *)
let copy_range t ~off ~len =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Mbuf.copy_range";
  if len = 0 then of_bytes Bytes.empty ~off:0 ~len:0
  else begin
    let dst =
      ref
        {
          buf = Bytes.create (default_headroom + Int.min len cluster_size);
          off = default_headroom;
          len = 0;
          shared = false;
        }
    in
    let dst_room = ref (Int.min len cluster_size) in
    let acc = ref [ !dst ] in
    let remaining = ref len in
    let pos = ref 0 in
    List.iter
      (fun s ->
        let seg_start = !pos and seg_end = !pos + s.len in
        pos := seg_end;
        let lo = Int.max seg_start off and hi = Int.min seg_end (off + len) in
        let lo = ref lo in
        while !lo < hi do
          if !dst_room = 0 then begin
            let n = Int.min !remaining cluster_size in
            let d = { buf = Bytes.create n; off = 0; len = 0;
                      shared = false } in
            dst := d;
            dst_room := n;
            acc := d :: !acc
          end;
          let d = !dst in
          let n = Int.min (hi - !lo) !dst_room in
          Bytes.blit s.buf (s.off + !lo - seg_start) d.buf (d.off + d.len) n;
          d.len <- d.len + n;
          dst_room := !dst_room - n;
          remaining := !remaining - n;
          lo := !lo + n
        done)
      t.segs;
    assert (!remaining = 0);
    { segs = List.rev !acc; total = len }
  end

(* Zero-copy split (BSD m_split): the front chain takes the leading
   segment records; a cut inside a segment makes two records over the
   same buffer, both marked shared so neither side's headroom reuse can
   scribble on the other's bytes. *)
let split t n =
  if n < 0 || n > t.total then invalid_arg "Mbuf.split";
  let rec go n segs front =
    if n = 0 then (List.rev front, segs)
    else
      match segs with
      | [] -> assert false
      | s :: rest ->
        if s.len <= n then go (n - s.len) rest (s :: front)
        else begin
          s.shared <- true;
          let head = { buf = s.buf; off = s.off; len = n; shared = true } in
          s.off <- s.off + n;
          s.len <- s.len - n;
          (List.rev (head :: front), segs)
        end
  in
  let front_segs, back_segs = go n t.segs [] in
  t.segs <- back_segs;
  t.total <- t.total - n;
  { segs = front_segs; total = n }

(* Non-destructive zero-copy window: fresh segment records over the same
   buffers (both sides marked shared). *)
let sub_view t ~off ~len =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Mbuf.sub_view";
  let acc = ref [] in
  let pos = ref 0 in
  List.iter
    (fun s ->
      let lo = Int.max !pos off and hi = Int.min (!pos + s.len) (off + len) in
      if lo < hi then begin
        s.shared <- true;
        acc :=
          { buf = s.buf; off = s.off + lo - !pos; len = hi - lo;
            shared = true }
          :: !acc
      end;
      pos := !pos + s.len)
    t.segs;
  { segs = List.rev !acc; total = len }

let contiguous t =
  let rec go = function
    | [] -> Some (Bytes.empty, 0, 0)
    | [ s ] -> Some (s.buf, s.off, s.len)
    | s :: rest -> if s.len = 0 then go rest else non_empty s rest
  and non_empty s = function
    | [] -> Some (s.buf, s.off, s.len)
    | r :: rest -> if r.len = 0 then non_empty s rest else None
  in
  go t.segs

let checksum_add t acc =
  (* mutable fold: this runs once per segment on the rx fast path, and
     a (acc, parity) tuple per chain link is measurable churn *)
  let sum = ref acc and odd = ref false in
  List.iter
    (fun s ->
      if s.len > 0 then begin
        sum :=
          (if !odd then
             Psd_util.Checksum.add_bytes_odd !sum s.buf ~off:s.off ~len:s.len
           else Psd_util.Checksum.add_bytes !sum s.buf ~off:s.off ~len:s.len);
        odd := !odd <> (s.len land 1 = 1)
      end)
    t.segs;
  !sum

let blit_to_bytes t b off =
  let pos = ref off in
  List.iter
    (fun s ->
      Bytes.blit s.buf s.off b !pos s.len;
      pos := !pos + s.len)
    t.segs

let to_bytes t =
  let b = Bytes.create t.total in
  blit_to_bytes t b 0;
  b

let to_string t = Bytes.unsafe_to_string (to_bytes t)
