(* A timer is two words: the wheel node while armed, and the armed
   callback. The wheel stores the timer record itself as the entry
   value; the fire path and [timer_cancel] both release the node to the
   wheel's free list and blank [tfn], so an idle timer (fired or
   cancelled) pins neither a node nor a closure — the compact-PCB work
   counts on five such timers per connection costing ~nothing when
   quiescent. *)
type timer = {
  mutable tnode : timer Wheel.node option;
  mutable tfn : unit -> unit;
}

type t = {
  mutable now : int;
  (* Same-instant lane: a FIFO ring of zero-delay events (spawn bodies,
     [Suspend] resumes, the second stage of [Sleep]). Every entry's key
     is [now] — the clock cannot advance past a pending entry — and
     seqs only grow, so the ring is already in (key, seq) order and
     costs O(1) per event where the heap would sift through the
     far-future entries parked beneath. [lane_seqs]/[lane_fns] have a
     power-of-two capacity; [lane_head] indexes the oldest entry. *)
  mutable lane_seqs : int array;
  mutable lane_fns : (unit -> unit) array;
  mutable lane_head : int;
  mutable lane_len : int;
  events : (unit -> unit) Psd_util.Heap.t;
  (* Re-armable protocol timers live on a hierarchical timing wheel
     instead of the heap: O(1) cancel/re-arm, and a cancelled timer
     leaves no dead entry behind. Lane, heap and wheel share
     [next_seq], so (key, seq) totally orders events across all three
     queues and dispatch order is identical to a single-queue engine. *)
  timers : timer Wheel.t;
  mutable next_seq : int;
  rng : Psd_util.Rng.t;
  mutable alive : int;
  mutable failures : (string * exn) list;
      (* (fiber name, exception), newest first; reversed when read *)
  (* The one effect handler every spawned fiber runs under; [create]
     builds it once the engine it closes over exists. *)
  mutable fiber : (unit, unit) Effect.Deep.handler;
  mutable horizon : int; (* run_until bound; sleeps may not advance past it *)
}

let nop = fun () -> ()

let dummy_timer = { tnode = None; tfn = nop }

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Sleep is the hot path (every cost charge passes through it), so it
   gets its own effect: the handler skips [Suspend]'s resume-closure and
   double-resume guard. It keeps the same two-step schedule as every
   sleep (see [requeue_after]). *)
type _ Effect.t += Sleep : int -> unit Effect.t

(* Initial lane capacity, and the size a drained lane shrinks back to
   once a burst (10⁵ spawns at t=0 in the scale workload) has grown it
   past [lane_keep]: a large idle ring would otherwise sit in the heap
   for the rest of the run. *)
let lane_init = 64

let lane_keep = 1024

let unset_handler : (unit, unit) Effect.Deep.handler =
  { retc = nop; exnc = raise; effc = (fun _ -> None) }

let now t = t.now

let rng t = t.rng

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let lane_grow t =
  let cap = Array.length t.lane_seqs in
  let seqs = Array.make (2 * cap) 0 and fns = Array.make (2 * cap) nop in
  (* unroll the ring so the oldest entry lands at index 0 *)
  let first = cap - t.lane_head in
  Array.blit t.lane_seqs t.lane_head seqs 0 first;
  Array.blit t.lane_fns t.lane_head fns 0 first;
  Array.blit t.lane_seqs 0 seqs first t.lane_head;
  Array.blit t.lane_fns 0 fns first t.lane_head;
  t.lane_seqs <- seqs;
  t.lane_fns <- fns;
  t.lane_head <- 0

let lane_push t seq f =
  if t.lane_len = Array.length t.lane_seqs then lane_grow t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_seqs - 1) in
  t.lane_seqs.(i) <- seq;
  t.lane_fns.(i) <- f;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let i = t.lane_head in
  let f = t.lane_fns.(i) in
  t.lane_fns.(i) <- nop;
  t.lane_len <- t.lane_len - 1;
  if t.lane_len > 0 then
    t.lane_head <- (i + 1) land (Array.length t.lane_seqs - 1)
  else begin
    t.lane_head <- 0;
    if Array.length t.lane_seqs > lane_keep then begin
      t.lane_seqs <- Array.make lane_init 0;
      t.lane_fns <- Array.make lane_init nop
    end
  end;
  f

let schedule t dt f =
  if dt = 0 then lane_push t (alloc_seq t) f
  else if dt > 0 then
    Psd_util.Heap.push_seq t.events ~key:(t.now + dt) ~seq:(alloc_seq t) f
  else invalid_arg "Engine.schedule: negative delay"

(* Absolute-key scheduling, for the shard layer: a cross-shard arrival
   carries the virtual time it was computed for on the sending shard;
   the receiving engine allocates the seq at injection, exactly as a
   local [schedule] at the same instant would. *)
let schedule_abs t ~key f =
  if key < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_abs: key %d is before now %d" key
         t.now);
  Psd_util.Heap.push_seq t.events ~key ~seq:(alloc_seq t) f

let timer () = { tnode = None; tfn = nop }

let timer_arm t tm dt f =
  if dt < 0 then invalid_arg "Engine.timer_arm: negative delay";
  let key = t.now + dt in
  (* One seq per arm, exactly like a heap push, so interleavings with
     heap events are unchanged. *)
  let seq = alloc_seq t in
  tm.tfn <- f;
  match tm.tnode with
  | Some n ->
    (* still armed: re-use our own node in place, no pool round-trip *)
    Wheel.cancel t.timers n;
    Wheel.reinsert t.timers n ~key ~seq tm
  | None -> tm.tnode <- Some (Wheel.acquire t.timers ~key ~seq tm)

let timer_cancel t tm =
  match tm.tnode with
  | Some n ->
    tm.tnode <- None;
    tm.tfn <- nop;
    Wheel.release t.timers n
  | None -> ()

let suspend t register =
  ignore t;
  Effect.perform (Suspend register)

(* Bypass: if no queued event fires at or before [target] (and the run
   horizon doesn't cut the sleep short), the two-step schedule would pop
   the timer, re-queue the continuation, and pop it again with nothing
   able to interleave — the sleeper wakes with the heap in exactly the
   state it left it, and no other push can happen in between, so
   relative sequence order of every real event is unchanged.  Advancing
   the clock inline is observationally identical and skips two heap
   operations (and, for a fiber, two effect stack-switches).  ~70% of
   steady-state events are these uncontended cost-charge sleeps.  A
   non-empty lane always blocks the bypass: its entries sit at
   [now <= target].  Both sleep forms decide through this one
   predicate. *)
let can_bypass t target =
  target <= t.horizon
  && t.lane_len = 0
  && Psd_util.Heap.min_key t.events > target
  && Wheel.min_key t.timers > target

(* The slow path of both sleep forms: the timer fires after [dt], then
   the sleeper re-enters the queue at delay 0, drawing its sequence
   number at fire time — same-instant FIFO order is part of the
   determinism contract, and collapsing the two steps observably
   reorders lossy runs. *)
let requeue_after t dt k = schedule t dt (fun () -> schedule t 0 k)

let sleep_inline t dt =
  if dt < 0 then invalid_arg "Engine.sleep: negative delay";
  let target = t.now + dt in
  can_bypass t target
  && begin
    t.now <- target;
    true
  end

let sleep t dt = if not (sleep_inline t dt) then Effect.perform (Sleep dt)

let sleep_k t dt k = if sleep_inline t dt then k () else requeue_after t dt k

(* prepend: appending would make accumulating n failures O(n²);
   readers reverse once instead *)
let record t name e = t.failures <- (name, e) :: t.failures

let died t name e =
  t.alive <- t.alive - 1;
  record t name e

(* The fiber effect handler, for [spawn] bodies and task tails alike:
   it carries its fiber across every [Suspend] and [Sleep], and ends it
   when the body returns or raises. *)
let handler t name =
  let open Effect.Deep in
  {
    retc = (fun () -> t.alive <- t.alive - 1);
    exnc = died t name;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let resumed = ref false in
              register (fun () ->
                  if !resumed then invalid_arg "Engine: fiber resumed twice";
                  resumed := true;
                  schedule t 0 (fun () -> continue k ())))
        | Sleep dt ->
          Some
            (fun (k : (a, unit) continuation) ->
              (* [requeue_after], with the resume closure built only
                 when the timer fires: a fiber parked in a long sleep
                 holds one closure, not two *)
              schedule t dt (fun () -> schedule t 0 (fun () -> continue k ())))
        | _ -> None);
  }

let create ?(seed = 42) () =
  let t =
    {
      now = 0;
      lane_seqs = Array.make lane_init 0;
      lane_fns = Array.make lane_init nop;
      lane_head = 0;
      lane_len = 0;
      events = Psd_util.Heap.create ~filler:nop;
      timers = Wheel.create ~dummy:dummy_timer ();
      next_seq = 0;
      rng = Psd_util.Rng.create ~seed;
      alive = 0;
      failures = [];
      fiber = unset_handler;
      horizon = max_int;
    }
  in
  t.fiber <- handler t "?";
  t

(* The body records its own failure under its name, so every fiber
   shares the engine's one handler, whose [exnc] it never reaches. *)
let spawn t ?(name = "?") f =
  t.alive <- t.alive + 1;
  schedule t 0 (fun () ->
      Effect.Deep.match_with
        (fun () -> try f () with e -> record t name e)
        () t.fiber)

module Task = struct
  type engine = t

  type t = {
    eng : engine;
    name : string;
    tail_handler : (unit, unit) Effect.Deep.handler; (* built once *)
  }

  let create eng ~name = { eng; name; tail_handler = handler eng name }

  let stage t k x = try k x with e -> died t.eng t.name e

  let start t k x =
    t.eng.alive <- t.eng.alive + 1;
    schedule t.eng 0 (fun () -> stage t k x)

  let wake t run =
    t.eng.alive <- t.eng.alive + 1;
    schedule t.eng 0 run

  let tail t k x = Effect.Deep.match_with k x t.tail_handler

  let finish t = t.eng.alive <- t.eng.alive - 1
end

(* Next event across the three queues is the (key, seq) minimum; the
   shared seq counter makes the comparison a strict total order. A
   non-empty lane holds the minimum key, [now]. *)
let next_key t =
  if t.lane_len > 0 then t.now
  else Int.min (Psd_util.Heap.min_key t.events) (Wheel.min_key t.timers)

let fire_timer t wk =
  t.now <- wk;
  let tm = Wheel.pop_min t.timers in
  (* Fire: detach the (already unlinked) node into the pool and blank
     the callback before invoking it, so a quiescent timer retains
     nothing and the callback may freely re-arm. *)
  (match tm.tnode with
  | Some n ->
    tm.tnode <- None;
    Wheel.release t.timers n
  | None -> ());
  let f = tm.tfn in
  tm.tfn <- nop;
  f ()

let fire_event t hk =
  t.now <- hk;
  let f = Psd_util.Heap.pop_min t.events in
  f ()

let step t =
  let hk = Psd_util.Heap.min_key t.events in
  let wk = Wheel.min_key t.timers in
  if t.lane_len > 0 then begin
    (* heap and wheel keys are >= now, the lane's key: only an entry
       at [now] with a smaller seq can precede the lane's head *)
    let now = t.now in
    let ls = t.lane_seqs.(t.lane_head) in
    let hs = if hk = now then Psd_util.Heap.min_seq t.events else max_int in
    let ws = if wk = now then Wheel.min_seq t.timers else max_int in
    if ls < hs && ls < ws then (lane_pop t) ()
    else if ws < hs then fire_timer t wk
    else fire_event t hk;
    true
  end
  else if hk = max_int && wk = max_int then false
  else begin
    if
      wk < hk
      || (wk = hk && Wheel.min_seq t.timers < Psd_util.Heap.min_seq t.events)
    then fire_timer t wk
    else fire_event t hk;
    true
  end

let failures t = List.rev t.failures

let raise_failures who = function
  | [] -> ()
  | (name, e) :: _ as fs ->
    failwith
      (Printf.sprintf "%s: %d fiber failure(s); first: fiber %s died: %s" who
         (List.length fs) name (Printexc.to_string e))

let check_failures t = raise_failures "Engine.run" (failures t)

let run t =
  while step t do
    ()
  done;
  check_failures t

let run_until t stop =
  let saved = t.horizon in
  t.horizon <- stop;
  while
    let nk = next_key t in
    nk <> max_int && nk <= stop
  do
    ignore (step t)
  done;
  t.horizon <- saved;
  if t.now < stop then t.now <- stop;
  check_failures t

let run_for t dt = run_until t (t.now + dt)

(* Windowed dispatch for the shard layer: execute every event with
   key < [bound] and stop, leaving the clock at the last dispatched
   event (NOT advanced to the bound — the conservative horizon is
   exclusive, and the next window may open below it).  The sleep-bypass
   horizon is set to [bound - 1] so a sleep that would cross the window
   suspends through the Sleep effect instead of advancing the clock
   into territory another shard may still inject events into.
   Failures are left accumulated for the shard layer to aggregate. *)
let run_below t bound =
  let saved = t.horizon in
  t.horizon <- bound - 1;
  while next_key t < bound do
    ignore (step t)
  done;
  t.horizon <- saved

(* Force the clock forward at the end of a sharded run, mirroring what
   [run_until] does when the last event precedes the stop time. *)
let advance_to t time = if time > t.now then t.now <- time

let alive t = t.alive

(* lane and heap pushes + wheel arms: one seq per scheduled event *)
let events_scheduled t = t.next_seq
