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
   - Both sifts bubble a hole instead of swapping.

   Same-key runs. Every receiver on a segment charges the same cost at
   the same instant, so most pushes carry the key of the push before.
   A push whose key equals the most recent push's, while that push's
   run is still queued, is appended to the run's FIFO instead of
   sifting; the heap orders runs by (key, head seq), and a pop takes
   the root run's head, sifting only when the run empties. Pop order
   is unchanged: a run is a maximal block of consecutive pushes with
   one key, so its seqs are sorted and appending never changes its
   head; and a later run of the same key only starts after another
   push, so every seq it holds exceeds every seq of the earlier run.
   The root run's next head therefore still precedes every other run,
   and needs no sift.

   A run of one costs the three heap words it always did. A longer run
   keeps all its entries, head included, in a slab of (seq, value,
   next) triples threaded by a free list, and its heap slot holds
   [-(slab index of the head) - 1] in place of a seq: seqs are never
   negative, so the sign tells the two apart. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array; (* head seq, or -(slab head) - 1 *)
  mutable vals : 'a array; (* head value of a run of one, else filler *)
  mutable n : int; (* runs *)
  mutable count : int; (* entries *)
  mutable sseqs : int array;
  mutable svals : 'a array;
  mutable snext : int array;
      (* next entry of the run, or of the free list; -1 ends either *)
  mutable free : int;
  mutable used : int; (* slab slots ever handed out *)
  (* the most recent push: its key, its run's heap slot ([-1] once the
     run has been popped empty) and, for a run in the slab, the slab
     index of its tail *)
  mutable last_key : int;
  mutable last_pos : int;
  mutable last_tail : int;
  mutable next_seq : int;
  filler : 'a;
      (* occupies every slot no entry holds, so a popped value is not
         kept reachable by the array it left *)
}

let create ~filler =
  {
    keys = [||];
    seqs = [||];
    vals = [||];
    n = 0;
    count = 0;
    sseqs = [||];
    svals = [||];
    snext = [||];
    free = -1;
    used = 0;
    last_key = 0;
    last_pos = -1;
    last_tail = -1;
    next_seq = 0;
    filler;
  }

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

let alloc_slot h =
  let e = h.free in
  if e >= 0 then begin
    h.free <- h.snext.(e);
    e
  end
  else begin
    if h.used = Array.length h.sseqs then begin
      let cap = Int.max 16 (2 * h.used) in
      let sseqs = Array.make cap 0
      and svals = Array.make cap h.filler
      and snext = Array.make cap (-1) in
      Array.blit h.sseqs 0 sseqs 0 h.used;
      Array.blit h.svals 0 svals 0 h.used;
      Array.blit h.snext 0 snext 0 h.used;
      h.sseqs <- sseqs;
      h.svals <- svals;
      h.snext <- snext
    end;
    let e = h.used in
    h.used <- e + 1;
    e
  end

let free_slot h e =
  h.svals.(e) <- h.filler;
  h.snext.(e) <- h.free;
  h.free <- e

(* the head seq of the run in heap slot [i] *)
let[@inline] seq_at h i =
  let s = h.seqs.(i) in
  if s >= 0 then s else h.sseqs.(-s - 1)

(* Append to the most recent push's run, at heap slot [p]. *)
let append h p ~seq value =
  let e = alloc_slot h in
  h.sseqs.(e) <- seq;
  h.svals.(e) <- value;
  h.snext.(e) <- -1;
  let s = h.seqs.(p) in
  if s >= 0 then begin
    (* a run of one moves into the slab, its head first *)
    let hd = alloc_slot h in
    h.sseqs.(hd) <- s;
    h.svals.(hd) <- h.vals.(p);
    h.snext.(hd) <- e;
    h.vals.(p) <- h.filler;
    h.seqs.(p) <- -hd - 1
  end
  else h.snext.(h.last_tail) <- e;
  h.last_tail <- e

(* [seq] must exceed every seq currently in the heap — callers either
   let [push] draw from the internal counter or supply their own
   monotone counter shared with other queues (the engine shares one
   counter between the heap and the timing wheel so that cross-queue
   (key, seq) order is a total order over all events). *)
let push_seq h ~key ~seq value =
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  h.count <- h.count + 1;
  if key = h.last_key && h.last_pos >= 0 then append h h.last_pos ~seq value
  else begin
    if h.n = Array.length h.keys then grow h;
    let keys = h.keys and seqs = h.seqs and vals = h.vals in
    (* hole bubble-up; the fresh run holds the largest seq, so a key
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
    vals.(!i) <- value;
    h.last_key <- key;
    h.last_pos <- !i
  end

let push h ~key value = push_seq h ~key ~seq:h.next_seq value

(* The root run is empty: hole bubble-down from the root, placing the
   last run. [last_pos] follows the most recent push's run, in a local
   until the sift ends. *)
let remove_root h =
  let n = h.n - 1 in
  h.n <- n;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  if n = 0 then begin
    vals.(0) <- h.filler;
    h.last_pos <- -1
  end
  else begin
    let ek = keys.(n) and er = seqs.(n) and ev = vals.(n) in
    let es = if er >= 0 then er else h.sseqs.(-er - 1) in
    (* the most recent push's run: gone with the root, moved with a
       child, or the displaced last run itself *)
    let lp = ref (if h.last_pos = 0 then -1 else h.last_pos) in
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
            || (keys.(c) = keys.(!m) && seq_at h c < seq_at h !m)
          then m := c
        done;
        let m = !m in
        if keys.(m) < ek || (keys.(m) = ek && seq_at h m < es) then begin
          keys.(!i) <- keys.(m);
          seqs.(!i) <- seqs.(m);
          vals.(!i) <- vals.(m);
          if !lp = m then lp := !i;
          i := m
        end
        else continue := false
      end
    done;
    keys.(!i) <- ek;
    seqs.(!i) <- er;
    vals.(!i) <- ev;
    h.last_pos <- (if !lp = n then !i else !lp)
  end

let pop_min h =
  if h.n = 0 then invalid_arg "Heap.pop_min: empty";
  h.count <- h.count - 1;
  let s = h.seqs.(0) in
  if s >= 0 then begin
    let top = h.vals.(0) in
    remove_root h;
    top
  end
  else begin
    let e = -s - 1 in
    let top = h.svals.(e) in
    let next = h.snext.(e) in
    free_slot h e;
    if next >= 0 then h.seqs.(0) <- -next - 1 else remove_root h;
    top
  end

let pop h =
  if h.n = 0 then None
  else
    let key = h.keys.(0) in
    Some (key, pop_min h)

let peek_key h = if h.n = 0 then None else Some h.keys.(0)

(* allocation-free peek for hot paths; empty heap reads as +inf *)
let min_key h = if h.n = 0 then max_int else h.keys.(0)

let min_seq h = if h.n = 0 then max_int else seq_at h 0

let size h = h.count

let is_empty h = h.n = 0

let clear h =
  h.n <- 0;
  h.count <- 0;
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||];
  h.sseqs <- [||];
  h.svals <- [||];
  h.snext <- [||];
  h.free <- -1;
  h.used <- 0;
  h.last_pos <- -1

let pushes h = h.next_seq
