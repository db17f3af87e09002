type acc = int

let empty = 0

let add_u16 acc w = acc + (w land 0xffff)

let fold16 v =
  let v = ref v in
  while !v lsr 16 <> 0 do
    v := (!v land 0xffff) + (!v lsr 16)
  done;
  !v

(* One's-complement sums commute with byte order (RFC 1071 §2.B):
   swap16 x ≡ 256·x (mod 0xffff), so a sum of byte-swapped words, folded
   and swapped back, equals the big-endian sum modulo 0xffff — and is
   zero exactly when the big-endian sum is. That lets the inner loop read
   native-endian 64-bit words (four 16-bit lanes per load) regardless of
   host byte order, correcting once at the end. *)
let swap16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

(* the bounds are checked once, on entry to [add_bytes] *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* the two 32-bit halves of a 64-bit load, as non-negative ints *)
let[@inline] halves w =
  Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
  + Int64.to_int (Int64.shift_right_logical w 32)

let add_bytes acc b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.add_bytes";
  let acc = ref acc in
  let i = ref off in
  let stop = off + len in
  if len >= 32 then begin
    (* Word-at-a-time: pairs are consumed from [off], so the 16-bit lanes
       of each 64-bit load coincide with the logical word stream whatever
       the buffer's memory alignment. Splitting each word into 32-bit
       halves keeps the running sum far below OCaml's 63-bit int range
       (2^32 per half; a 64 KB packet contributes < 2^46). The main loop
       reads 32 bytes per iteration into two independent sums, so the
       additions of consecutive loads need not wait on each other. *)
    let s0 = ref 0 and s1 = ref 0 in
    while !i + 32 <= stop do
      let j = !i in
      s0 := !s0 + halves (get64u b j) + halves (get64u b (j + 16));
      s1 := !s1 + halves (get64u b (j + 8)) + halves (get64u b (j + 24));
      i := j + 32
    done;
    while !i + 8 <= stop do
      s0 := !s0 + halves (get64u b !i);
      i := !i + 8
    done;
    let folded = fold16 (!s0 + !s1) in
    acc := !acc + if Sys.big_endian then folded else swap16 folded
  end;
  while !i + 2 <= stop do
    acc := !acc + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Bytes.get_uint8 b !i lsl 8);
  !acc

(* Folding a range that begins at an odd offset of the logical word
   stream: sum it as if even-aligned, then swap — by the same RFC 1071
   §2.B byte-order commutation the word-at-a-time loop relies on. This
   is what lets a checksum run over an mbuf chain whose segment
   boundaries fall on odd bytes without copying to realign. *)
let add_bytes_odd acc b ~off ~len =
  acc + swap16 (fold16 (add_bytes 0 b ~off ~len))

let finish acc = lnot (fold16 acc) land 0xffff

let of_bytes b ~off ~len = finish (add_bytes empty b ~off ~len)

let valid b ~off ~len = of_bytes b ~off ~len = 0

(* RFC 1624: HC' = ~(~HC + ~m + m'). *)
let update ~cksum ~old ~new_ =
  finish
    ((lnot cksum land 0xffff) + (lnot old land 0xffff) + (new_ land 0xffff))
