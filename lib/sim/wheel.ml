(* Hierarchical timing wheel (Varghese & Lauck), specialised for the
   engine's determinism contract: every entry carries the same (key, seq)
   pair the 4-ary event heap would have given it, and [pop_min] yields
   entries in exactly (key, seq) order — so a run whose timers live here
   is event-for-event identical to one whose timers live in the heap.

   Layout: [levels] levels of [slots] buckets; level [k] bucket [s]
   holds entries whose key agrees with the wheel cursor [cur] on every
   base-[slots] digit above [k] and whose digit [k] is [s]. Equivalently,
   an entry lives at the level of the highest base-[slots] digit where
   its key differs from [cur] (level 0 if none). 11 levels of 64 slots
   cover the full 62-bit non-negative key space. Narrow rows keep
   [create] small (the engine around it allocates 933 words, against
   2,268 with 8 rows of 256): every simulated topology builds an engine,
   and a set-up that allocates less takes fewer minor collections. Rows
   are built up front: built on first use, they would show up as memory
   of whichever connection first armed or cascaded a timer into their
   level. They stay separate small arrays: one flat array over 256
   words would be allocated directly in the major heap.

   The wheel only ever advances [cur] to the key of the entry being
   popped — i.e. to the current minimum. That restriction is what keeps
   placement cheap: advancing to the minimum can only change cursor
   digits at or below the popped entry's level, and any entry that the
   digit change would misplace would have to sort below the minimum —
   a contradiction — so only the boundary buckets on the advance path
   need cascading, and every other entry's placement stays valid.

   Tie-breaking: a level-0 bucket is single-key (all digits of the key
   are pinned by cursor agreement + the slot index), so its FIFO list
   order is insertion order = seq order, given the engine's monotone
   seq counter. Cascades walk buckets in list order and append at the
   tail, preserving relative order of equal keys across levels.

   Buckets are circular doubly-linked lists whose slot holds the head, or
   [nil] when empty (no per-bucket sentinel to allocate), so cancel is
   O(1), allocation-free, and idempotent; nodes are reusable via
   [reinsert] so a re-armed timer costs no allocation. *)

type 'a node = {
  mutable key : int;
  mutable seq : int;
  mutable value : 'a;
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable lvl : int; (* current level while linked *)
  mutable linked : bool;
}

let slot_bits = 6
let slots = 1 lsl slot_bits
let levels = 11
let slot_mask = slots - 1

type 'a t = {
  dummy : 'a;
  buckets : 'a node array array; (* [level].[slot] head, or [nil] *)
  level_count : int array; (* live entries per level *)
  mutable cur : int; (* wheel time; all live keys are >= cur *)
  mutable count : int;
  (* Exact cached minimum when [Some]; [None] means empty or unknown
     (recomputed lazily by [min_node]). *)
  mutable cached : 'a node option;
  (* Node pool: singly linked through [next] (prev stays self),
     terminated by [nil], which also marks an empty bucket.
     [acquire]/[release] recycle nodes here so arm/fire/re-arm churn
     allocates nothing and an idle timer pins no node. *)
  nil : 'a node;
  mutable free : 'a node;
}

let make_sentinel dummy =
  let rec s =
    { key = 0; seq = 0; value = dummy; prev = s; next = s; lvl = -1;
      linked = false }
  in
  s

let create ~dummy () =
  let nil = make_sentinel dummy in
  {
    dummy;
    buckets = Array.init levels (fun _ -> Array.make slots nil);
    level_count = Array.make levels 0;
    cur = 0;
    count = 0;
    cached = None;
    nil;
    free = nil;
  }

let is_empty t = t.count = 0

let active n = n.linked

let slot_of key k = (key lsr (k * slot_bits)) land slot_mask

(* Highest base-[slots] digit where [key] differs from [cur]; 0 if none. *)
let level_of t key =
  let d = key lxor t.cur in
  if d <= slot_mask then 0
  else begin
    let k = ref 0 and d = ref d in
    while !d > slot_mask do
      incr k;
      d := !d lsr slot_bits
    done;
    !k
  end

let link_tail t n =
  let k = n.lvl in
  let row = t.buckets.(k) and s = slot_of n.key k in
  let h = row.(s) in
  (* an unlinked node links to itself (insert, unlink, acquire) *)
  if h == t.nil then row.(s) <- n
  else begin
    n.prev <- h.prev;
    n.next <- h;
    h.prev.next <- n;
    h.prev <- n
  end;
  n.linked <- true;
  t.level_count.(k) <- t.level_count.(k) + 1

(* [n]'s bucket is found from its key and level, neither of which
   changes while it is linked *)
let unlink t n =
  let row = t.buckets.(n.lvl) and s = slot_of n.key n.lvl in
  if n.next == n then row.(s) <- t.nil
  else begin
    if row.(s) == n then row.(s) <- n.next;
    n.prev.next <- n.next;
    n.next.prev <- n.prev
  end;
  n.prev <- n;
  n.next <- n;
  n.linked <- false;
  t.level_count.(n.lvl) <- t.level_count.(n.lvl) - 1

(* (key, seq) strict order; [b] beats [a] when strictly smaller *)
let beats ~key ~seq a = key < a.key || (key = a.key && seq < a.seq)

let place t n =
  n.lvl <- level_of t n.key;
  link_tail t n;
  t.count <- t.count + 1;
  match t.cached with
  | Some m -> if beats ~key:n.key ~seq:n.seq m then t.cached <- Some n
  | None -> if t.count = 1 then t.cached <- Some n
(* count > 1 with no cache: stay lazy; min_node recomputes *)

let insert t ~key ~seq value =
  if key < t.cur then invalid_arg "Wheel.insert: key precedes wheel time";
  let rec n =
    { key; seq; value; prev = n; next = n; lvl = 0; linked = false }
  in
  place t n;
  n

let reinsert t n ~key ~seq value =
  if n.linked then invalid_arg "Wheel.reinsert: node still linked";
  if key < t.cur then invalid_arg "Wheel.reinsert: key precedes wheel time";
  n.key <- key;
  n.seq <- seq;
  n.value <- value;
  place t n

let cancel t n =
  if n.linked then begin
    unlink t n;
    t.count <- t.count - 1;
    n.value <- t.dummy;
    (match t.cached with
    | Some m when m == n -> t.cached <- None
    | _ -> ())
  end

(* Pooled variant of [insert]: serve from the free list when possible.
   The returned node is owned by the caller until [release]d. *)
let acquire t ~key ~seq value =
  if t.free == t.nil then insert t ~key ~seq value
  else begin
    let n = t.free in
    t.free <- n.next;
    n.prev <- n;
    n.next <- n;
    reinsert t n ~key ~seq value;
    n
  end

(* Unlink (if still linked) and return the node to the pool. The caller
   must drop its reference: releasing the same node twice corrupts the
   free list. *)
let release t n =
  cancel t n;
  n.next <- t.free;
  t.free <- n

(* Scan for the minimum entry. Levels are scanned bottom-up and, within
   a level, slots in increasing order from the cursor digit: level-j
   entries always sort below level-k entries for j < k (they agree with
   [cur] on strictly more high digits), and within a level the slot
   index orders the keys (all higher digits agree with [cur]). The first
   non-empty level-0 bucket is single-key and FIFO-ordered, so its head
   is the answer; at higher levels the bucket spans a key range and must
   be scanned for the (key, seq) minimum. *)
let find_min t =
  let best = ref None in
  (try
     for k = 0 to levels - 1 do
       if t.level_count.(k) > 0 then begin
         let first = slot_of t.cur k + if k = 0 then 0 else 1 in
         for s = first to slots - 1 do
           let b = t.buckets.(k).(s) in
           if b != t.nil then begin
             if k = 0 then best := Some b
             else begin
               let m = ref b in
               let n = ref b.next in
               while !n != b do
                 if beats ~key:!n.key ~seq:!n.seq !m then m := !n;
                 n := !n.next
               done;
               best := Some !m
             end;
             raise Exit
           end
         done
       end
     done
   with Exit -> ());
  !best

(* Returns the cached option itself: [step] and every sleep-bypass check
   ask for the minimum, so a hit must not allocate. *)
let min_node t =
  match t.cached with
  | Some _ as c -> c
  | None ->
    if t.count = 0 then None
    else begin
      let m = find_min t in
      t.cached <- m;
      m
    end

let min_key t =
  match t.cached with
  | Some n -> n.key
  | None -> ( match min_node t with Some n -> n.key | None -> max_int)

let min_seq t =
  match t.cached with
  | Some n -> n.seq
  | None -> ( match min_node t with Some n -> n.seq | None -> max_int)

(* Advance the cursor to [target] (the current minimum key) and cascade
   the boundary buckets: flush, top-down, each level's bucket at the
   target's digit, re-placing entries at their (strictly lower) new
   level in list order so equal-key FIFO order survives the cascade.
   Buckets below the highest changed digit are provably empty (any
   occupant would sort below the minimum), so the loop does no work
   there beyond a counter check. *)
let advance t target =
  if target <> t.cur then begin
    let d = t.cur lxor target in
    let hk = ref 0 and dd = ref d in
    while !dd > slot_mask do
      incr hk;
      dd := !dd lsr slot_bits
    done;
    t.cur <- target;
    for k = !hk downto 1 do
      if t.level_count.(k) > 0 then begin
        (* every entry moves to a lower level, so the head is the next
           entry in list order until the bucket is empty *)
        let row = t.buckets.(k) and s = slot_of target k in
        while row.(s) != t.nil do
          let e = row.(s) in
          unlink t e;
          e.lvl <- level_of t e.key;
          link_tail t e
        done
      end
    done
  end

let pop_min t =
  match min_node t with
  | None -> invalid_arg "Wheel.pop_min: empty"
  | Some m ->
    advance t m.key;
    unlink t m;
    t.count <- t.count - 1;
    let v = m.value in
    m.value <- t.dummy;
    (* After the cascade the minimum's level-0 bucket holds every
       remaining entry with the same key, in seq order — so the new
       head, if any, is the next minimum for free. Otherwise fall back
       to a lazy rescan. *)
    let b = t.buckets.(0).(slot_of m.key 0) in
    t.cached <- (if b != t.nil then Some b else None);
    v
