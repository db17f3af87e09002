open Psd_util

type policy = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  jitter : float;
  reorder_ns : int;
  jitter_max_ns : int;
}

let default_reorder_ns = 3_000_000 (* ~2.5 max-frame times at 10 Mb/s *)

let default_jitter_max_ns = 1_000_000

let none =
  {
    drop = 0.;
    duplicate = 0.;
    reorder = 0.;
    corrupt = 0.;
    jitter = 0.;
    reorder_ns = default_reorder_ns;
    jitter_max_ns = default_jitter_max_ns;
  }

let drop_only p = { none with drop = p }

let chaos p = { none with drop = p; duplicate = p; reorder = p; corrupt = p }

let is_null p =
  p.drop = 0. && p.duplicate = 0. && p.reorder = 0. && p.corrupt = 0.
  && p.jitter = 0.

type stats = {
  mutable frames : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable jittered : int;
}

type t = { policy : policy; rng : Rng.t; st : stats }

let create ~rng policy =
  {
    policy;
    rng;
    st =
      {
        frames = 0;
        dropped = 0;
        duplicated = 0;
        reordered = 0;
        corrupted = 0;
        jittered = 0;
      };
  }

let stats t = t.st

let injected st =
  st.dropped + st.duplicated + st.reordered + st.corrupted + st.jittered

(* XOR one byte of the encapsulated IP packet. Offsets are confined to
   the claimed IP length so Ethernet padding (which no checksum covers)
   is never the victim; a corruption that nothing can detect would
   assert nothing. *)
let corrupt_in_place t frame =
  let len = Bytes.length frame in
  if
    len > Frame.header_size
    && Frame.ethertype frame = Frame.ethertype_ip
  then begin
    let claimed =
      (Bytes.get_uint8 frame (Frame.header_size + 2) lsl 8)
      lor Bytes.get_uint8 frame (Frame.header_size + 3)
    in
    let span = Int.min (len - Frame.header_size) (Int.max 1 claimed) in
    let off = Frame.header_size + Rng.int t.rng span in
    let mask = 1 + Rng.int t.rng 255 in
    Bytes.set_uint8 frame off (Bytes.get_uint8 frame off lxor mask);
    t.st.corrupted <- t.st.corrupted + 1
  end

(* Trials are drawn in a fixed order — drop, duplicate, then per copy
   corrupt, reorder, jitter — and a zero-probability trial consumes no
   draw, so a policy's schedule is a pure function of (seed, delivery
   sequence). *)
let apply t frame =
  let p = t.policy in
  let st = t.st in
  st.frames <- st.frames + 1;
  if is_null p then [ (0, frame) ]
  else begin
    let flip pr = pr > 0. && Rng.float t.rng < pr in
    if flip p.drop then begin
      st.dropped <- st.dropped + 1;
      []
    end
    else begin
      let copies =
        if flip p.duplicate then begin
          st.duplicated <- st.duplicated + 1;
          [ frame; Bytes.copy frame ]
        end
        else [ frame ]
      in
      List.map
        (fun frm ->
          if flip p.corrupt then corrupt_in_place t frm;
          let delay = ref 0 in
          if flip p.reorder then begin
            st.reordered <- st.reordered + 1;
            delay := !delay + p.reorder_ns
          end;
          if flip p.jitter then begin
            st.jittered <- st.jittered + 1;
            delay := !delay + 1 + Rng.int t.rng p.jitter_max_ns
          end;
          (!delay, frm))
        copies
    end
  end
