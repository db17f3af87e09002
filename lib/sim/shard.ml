(* Conservative parallel discrete-event layer: N single-domain engines,
   partitioned by host, synchronized by barrier rounds (YAWNS-style
   windows, no null messages).

   Round protocol — two phases per round, two barriers:

     phase 1 (publish): each shard drains its inboxes (one SPSC buffer
       per ordered shard pair, written only by the source shard in the
       previous round's phase 2, read only by the destination here —
       the intervening barrier is the hand-off), injects the arrivals
       into its engine, and publishes nk_i = next pending key.
     barrier A — every shard now sees the same frozen (nk, abort)
       arrays, so the continue/stop decision below is computed
       identically everywhere.
     phase 2 (execute): each shard computes its conservative horizon
         H_i = min(stop + 1, min over in-links j of nk_j + look(j, i))
       (saturating) and dispatches every local event with key < H_i.
       Cross-shard sends produced while executing are appended to the
       pair buffers for the next round.
     barrier B — hands the buffers to their readers.

   Safety: a send posted by shard j while executing carries
   key >= now_j + look(j, i) >= nk_j + look(j, i) >= H_i, so no arrival
   ever lands inside the window the receiver is currently executing —
   every injection is in its engine's future.  Progress: the globally
   minimal shard's horizon strictly exceeds its own next key (lookahead
   >= 1 ns), so the global minimum always advances.

   Determinism (the bit-identical contract): arrivals are injected at
   round start sorted by (key, source shard, per-pair FIFO index) and
   allocate their sequence numbers from the receiving engine at
   injection, so the merged (key, seq) dispatch order is a pure
   function of the simulation inputs — independent of wall-clock
   interleaving, and of whether the rounds run on N domains or are
   stepped sequentially on one.  The sequential driver executes the
   exact same phases in shard order, so [~domains:false] and
   [~domains:true] transcripts are identical by construction; the
   differential suites enforce it. *)

type entry = { e_key : int; e_fn : unit -> unit }

let dummy_entry = { e_key = 0; e_fn = ignore }

(* Growable per-(src, dst) buffer. Writer and reader are separated by a
   barrier, never concurrent, so plain mutable state is race-free. *)
type inbox = { mutable ib_buf : entry array; mutable ib_len : int }

let ib_push b e =
  if b.ib_len = Array.length b.ib_buf then begin
    let nb = Array.make (Int.max 8 (2 * b.ib_len)) dummy_entry in
    Array.blit b.ib_buf 0 nb 0 b.ib_len;
    b.ib_buf <- nb
  end;
  b.ib_buf.(b.ib_len) <- e;
  b.ib_len <- b.ib_len + 1

(* Sense-reversing barrier. The atomics are the synchronization edges
   that make every plain write before an [await] visible after it
   (release/acquire on the same locations). Waiters spin briefly — the
   fast path when each shard has its own core — then block on a
   condition variable, so on an oversubscribed (or single-core) host a
   wait costs a context switch instead of a scheduler quantum. *)
type barrier = {
  bn : int;
  count : int Atomic.t;
  sense : bool Atomic.t;
  lock : Mutex.t;
  cond : Condition.t;
}

let barrier_create n =
  {
    bn = n;
    count = Atomic.make 0;
    sense = Atomic.make false;
    lock = Mutex.create ();
    cond = Condition.create ();
  }

let spin_budget = 512

let barrier_await b local_sense =
  if Atomic.fetch_and_add b.count 1 = b.bn - 1 then begin
    Atomic.set b.count 0;
    (* Flip sense under the lock: a waiter that checked sense and is
       about to sleep holds the lock, so the broadcast can't be lost. *)
    Mutex.lock b.lock;
    Atomic.set b.sense local_sense;
    Condition.broadcast b.cond;
    Mutex.unlock b.lock
  end
  else begin
    let spins = ref 0 in
    while Atomic.get b.sense <> local_sense && !spins < spin_budget do
      Domain.cpu_relax ();
      incr spins
    done;
    if Atomic.get b.sense <> local_sense then begin
      Mutex.lock b.lock;
      while Atomic.get b.sense <> local_sense do
        Condition.wait b.cond b.lock
      done;
      Mutex.unlock b.lock
    end
  end

type t = {
  engines : Engine.t array;
  nshards : int;
  look : int array array; (* look.(src).(dst); max_int = no link *)
  boxes : inbox array array; (* boxes.(src).(dst) *)
  nk : int array; (* published next keys, frozen at barrier A *)
  ab : bool array; (* published abort flags, frozen at barrier A *)
  fail_slot : exn option array;
  posted_ctr : int array; (* per-source cross-shard sends *)
  barrier : barrier;
  mutable total_rounds : int;
}

let create ?(seed = 42) ~n () =
  if n < 1 then invalid_arg "Shard.create: need at least one shard";
  {
    (* Distinct seeds per shard: each engine's RNG stream is owned by
       its domain. Workloads that need cross-partition determinism
       derive their streams from explicit seeds instead. *)
    engines = Array.init n (fun i -> Engine.create ~seed:(seed + (i * 7919)) ());
    nshards = n;
    look = Array.make_matrix n n max_int;
    boxes =
      Array.init n (fun _ ->
          Array.init n (fun _ -> { ib_buf = [||]; ib_len = 0 }));
    nk = Array.make n max_int;
    ab = Array.make n false;
    fail_slot = Array.make n None;
    posted_ctr = Array.make n 0;
    barrier = barrier_create n;
    total_rounds = 0;
  }

let engine t i = t.engines.(i)

let index_of t eng = Array.find_index (fun e -> e == eng) t.engines

let now t = Engine.now t.engines.(0)

let rounds t = t.total_rounds

let posted t = Array.fold_left ( + ) 0 t.posted_ctr

let set_lookahead t ~src ~dst d =
  if src = dst then invalid_arg "Shard.set_lookahead: src = dst";
  if d < 1 then invalid_arg "Shard.set_lookahead: lookahead must be >= 1ns";
  if d < t.look.(src).(dst) then t.look.(src).(dst) <- d

let post t ~src ~dst ~key fn =
  if src = dst then Engine.schedule_abs t.engines.(src) ~key fn
  else begin
    let d = t.look.(src).(dst) in
    if d = max_int then invalid_arg "Shard.post: no lookahead for link";
    if key < Engine.now t.engines.(src) + d then
      invalid_arg "Shard.post: key violates the link lookahead";
    ib_push t.boxes.(src).(dst) { e_key = key; e_fn = fn };
    t.posted_ctr.(src) <- t.posted_ctr.(src) + 1
  end

(* saturating add of non-negative ints *)
let sadd a b = if a >= max_int - b then max_int else a + b

let compare_entry a b = compare a.e_key b.e_key

(* phase 1: drain inboxes in (src, FIFO) order, stable-sort by key —
   giving the (key, src shard, FIFO index) injection order — then
   inject, allocating receiver seqs; publish next key and abort flag. *)
let phase_publish t i =
  (if t.fail_slot.(i) = None then
     try
       let total = ref 0 in
       for s = 0 to t.nshards - 1 do
         total := !total + t.boxes.(s).(i).ib_len
       done;
       if !total > 0 then begin
         let tmp = Array.make !total dummy_entry in
         let w = ref 0 in
         for s = 0 to t.nshards - 1 do
           let b = t.boxes.(s).(i) in
           for j = 0 to b.ib_len - 1 do
             tmp.(!w) <- b.ib_buf.(j);
             incr w
           done;
           b.ib_len <- 0
         done;
         Array.stable_sort compare_entry tmp;
         Array.iter
           (fun e -> Engine.schedule_abs t.engines.(i) ~key:e.e_key e.e_fn)
           tmp
       end
     with e -> t.fail_slot.(i) <- Some e);
  t.ab.(i) <- t.fail_slot.(i) <> None;
  t.nk.(i) <- if t.ab.(i) then max_int else Engine.next_key t.engines.(i)

(* The continue/stop decision: a pure function of the arrays frozen at
   barrier A, hence identical on every shard. *)
let decide_stop t stop =
  let m = ref max_int and any_ab = ref false in
  for i = 0 to t.nshards - 1 do
    if t.nk.(i) < !m then m := t.nk.(i);
    if t.ab.(i) then any_ab := true
  done;
  (* [m = max_int] (all engines drained) must stop even when
     [stop = max_int], where [m > stop] alone would spin forever. *)
  !any_ab || !m = max_int || !m > stop

(* Conservative horizon. The published next keys alone are NOT a safe
   bound: a shard with nothing scheduled (nk = max_int) can still be
   woken by a message we send this round and reply into virtual times
   far below where we would have run to. The safe quantity is the
   standard earliest-possible-execution fixpoint
       C_j = min(nk_j, min over in-links k of C_k + look(k, j))
   — any event shard j will ever execute is >= C_j, whether it is
   already scheduled or caused by a chain of future cross-shard wakeups
   (each hop adds at least its link lookahead). The horizon for shard i
   is then the earliest arrival any shard could still cause here:
       H_i = min(stop + 1, min over in-links j of C_j + look(j, i)).
   The fixpoint is a shortest-path relaxation over at most n nodes;
   every shard computes it from the same frozen nk array, so all
   shards agree. Progress: the globally minimal shard has
   H >= C_min + min-lookahead > its own next key. *)
let horizon t i stop =
  let n = t.nshards in
  let c = Array.copy t.nk in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      for j = 0 to n - 1 do
        if k <> j && t.look.(k).(j) <> max_int then begin
          let v = sadd c.(k) t.look.(k).(j) in
          if v < c.(j) then begin
            c.(j) <- v;
            changed := true
          end
        end
      done
    done
  done;
  let h = ref (sadd stop 1) in
  for j = 0 to n - 1 do
    if j <> i && t.look.(j).(i) <> max_int then begin
      let hj = sadd c.(j) t.look.(j).(i) in
      if hj < !h then h := hj
    end
  done;
  !h

let phase_execute t i stop =
  if t.fail_slot.(i) = None then
    try Engine.run_below t.engines.(i) (horizon t i stop)
    with e -> t.fail_slot.(i) <- Some e

(* Per-shard round loop for the domain-parallel driver. *)
let shard_body t i stop =
  let sense = ref false in
  let continue_ = ref true in
  while !continue_ do
    phase_publish t i;
    sense := not !sense;
    barrier_await t.barrier !sense;
    if decide_stop t stop then continue_ := false
    else begin
      phase_execute t i stop;
      if i = 0 then t.total_rounds <- t.total_rounds + 1;
      sense := not !sense;
      barrier_await t.barrier !sense
    end
  done;
  if t.fail_slot.(i) = None && stop <> max_int then
    Engine.advance_to t.engines.(i) stop

(* Same phases, same order, no domains: used for ~domains:false and as
   the reference the parallel driver must match bit-for-bit. *)
let sequential_run t stop =
  let continue_ = ref true in
  while !continue_ do
    for i = 0 to t.nshards - 1 do
      phase_publish t i
    done;
    if decide_stop t stop then continue_ := false
    else begin
      for i = 0 to t.nshards - 1 do
        phase_execute t i stop
      done;
      t.total_rounds <- t.total_rounds + 1
    end
  done;
  if stop <> max_int then
    Array.iter (fun e -> Engine.advance_to e stop) t.engines

let check_failures t =
  (match Array.find_opt (fun s -> s <> None) t.fail_slot with
  | Some (Some e) -> raise e
  | _ -> ());
  Engine.raise_failures "Shard.run"
    (List.concat_map Engine.failures (Array.to_list t.engines))

let run_until ?(domains = true) t stop =
  if domains && t.nshards > 1 then begin
    (* Every [shard_body] starts its local sense at [false], so the
       shared sense must too. A run makes an odd number of waits (two
       per round plus the last barrier A) and leaves it flipped; kept,
       the next call's first barrier A would not wait, and the shards
       would run a round apart. No domain runs here, so the reset races
       with nothing, and every wait of the last run has completed. *)
    assert (Atomic.get t.barrier.count = 0);
    Atomic.set t.barrier.sense false;
    let doms =
      Array.init (t.nshards - 1) (fun k ->
          Domain.spawn (fun () -> shard_body t (k + 1) stop))
    in
    shard_body t 0 stop;
    Array.iter Domain.join doms
  end
  else sequential_run t stop;
  check_failures t

let run_for ?domains t dt = run_until ?domains t (now t + dt)

let run ?domains t = run_until ?domains t max_int
