(* Min-heap keyed by (key, seq): seq is a monotonically increasing
   push counter, so entries with equal keys pop in FIFO order — the
   engine's same-instant determinism contract.

   Layout notes, because this sits under every simulated event:
   - 4-ary: children of [i] are [4i+1 .. 4i+4]. The comparator is a
     strict total order (unique [seq] breaks every key tie), so any
     correct heap shape yields the same pop sequence — arity is purely
     a constant-factor choice; four-way nodes halve sift depth and
     keep a node's children in adjacent slots.
   - Parallel unboxed arrays: keys and seqs live in int arrays, so the
     sift loops compare without dereferencing boxed entry records (and
     without write barriers when they move); values are only moved,
     never examined.
   - Both sifts bubble a hole instead of swapping. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable n : int;
  mutable next_seq : int;
  filler : 'a;
      (* occupies every slot at or past [n], so a popped value is not
         kept reachable by the array it left *)
}

let create ~filler =
  { keys = [||]; seqs = [||]; vals = [||]; n = 0; next_seq = 0; filler }

let grow h =
  let cap = Int.max 16 (2 * Array.length h.keys) in
  let keys = Array.make cap 0
  and seqs = Array.make cap 0
  and vals = Array.make cap h.filler in
  Array.blit h.keys 0 keys 0 h.n;
  Array.blit h.seqs 0 seqs 0 h.n;
  Array.blit h.vals 0 vals 0 h.n;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* [seq] must exceed every seq currently in the heap — callers either
   let [push] draw from the internal counter or supply their own
   monotone counter shared with other queues (the engine shares one
   counter between the heap and the timing wheel so that cross-queue
   (key, seq) order is a total order over all events). *)
let push_seq h ~key ~seq value =
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  if h.n = Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  (* hole bubble-up; the fresh element holds the largest seq, so a key
     tie with a parent is never "less" and the key compare suffices *)
  let i = ref h.n in
  h.n <- h.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let push h ~key value = push_seq h ~key ~seq:h.next_seq value

let pop_min h =
  if h.n = 0 then invalid_arg "Heap.pop_min: empty";
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let top = vals.(0) in
  let n = h.n - 1 in
  h.n <- n;
  if n = 0 then vals.(0) <- h.filler
  else begin
    (* hole bubble-down: place the displaced last element *)
    let ek = keys.(n) and es = seqs.(n) and ev = vals.(n) in
    vals.(n) <- h.filler;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (4 * !i) + 1 in
      if base >= n then continue := false
      else begin
        let m = ref base in
        let last = Int.min (base + 3) (n - 1) in
        for c = base + 1 to last do
          if
            keys.(c) < keys.(!m)
            || (keys.(c) = keys.(!m) && seqs.(c) < seqs.(!m))
          then m := c
        done;
        let m = !m in
        if keys.(m) < ek || (keys.(m) = ek && seqs.(m) < es) then begin
          keys.(!i) <- keys.(m);
          seqs.(!i) <- seqs.(m);
          vals.(!i) <- vals.(m);
          i := m
        end
        else continue := false
      end
    done;
    keys.(!i) <- ek;
    seqs.(!i) <- es;
    vals.(!i) <- ev
  end;
  top

let pop h =
  if h.n = 0 then None
  else
    let key = h.keys.(0) in
    Some (key, pop_min h)

let peek_key h = if h.n = 0 then None else Some h.keys.(0)

(* allocation-free peek for hot paths; empty heap reads as +inf *)
let min_key h = if h.n = 0 then max_int else h.keys.(0)

let min_seq h = if h.n = 0 then max_int else h.seqs.(0)

let size h = h.n

let is_empty h = h.n = 0

let clear h =
  h.n <- 0;
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||]

let pushes h = h.next_seq
