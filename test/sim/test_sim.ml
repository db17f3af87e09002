open Psd_sim

(* --- Engine --------------------------------------------------------- *)

let test_clock_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "t0" 0 (Engine.now eng)

let test_sleep_advances_clock () =
  let eng = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.sleep eng (Time.us 5);
      seen := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "5us" (Time.us 5) !seen;
  Alcotest.(check int) "no fibers left" 0 (Engine.alive eng)

let test_schedule_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng 30 (fun () -> log := "c" :: !log);
  Engine.schedule eng 10 (fun () -> log := "a" :: !log);
  Engine.schedule eng 20 (fun () -> log := "b" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule eng 100 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule eng (i * 100) (fun () -> incr count)
  done;
  Engine.run_until eng 500;
  Alcotest.(check int) "half fired" 5 !count;
  Alcotest.(check int) "clock at stop" 500 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "all fired" 10 !count

let test_fiber_failure_reported () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"doomed" (fun () ->
      Engine.sleep eng 10;
      failwith "boom");
  Engine.spawn eng (fun () -> failwith "unnamed");
  (match Engine.run eng with
  | () -> Alcotest.fail "expected failure"
  | exception Failure msg ->
    Alcotest.(check string) "names the first"
      "Engine.run: 2 fiber failure(s); first: fiber ? died: \
       Failure(\"unnamed\")"
      msg);
  Alcotest.(check (list (pair string string)))
    "recorded, oldest first"
    [ ("?", "Failure(\"unnamed\")"); ("doomed", "Failure(\"boom\")") ]
    (List.map (fun (n, e) -> (n, Printexc.to_string e)) (Engine.failures eng));
  Alcotest.(check int) "alive" 0 (Engine.alive eng)

(* Every fiber runs under the engine's one handler: a spawn whose body
   returns at once costs its event closure and body wrapper, not a
   handler record and its closures per call. *)
let test_spawn_allocation () =
  let eng = Engine.create () in
  let f () = () in
  Engine.spawn eng f;
  Engine.run eng;
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Engine.spawn eng f;
    Engine.run eng
  done;
  let per_spawn = (Gc.minor_words () -. before) /. float_of_int n in
  if per_spawn > 20. then
    Alcotest.failf "%.1f minor words per spawn (at most 20)" per_spawn

let test_spawn_nested () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "outer" :: !log;
      Engine.spawn eng (fun () -> log := "inner" :: !log);
      Engine.sleep eng 10;
      log := "outer2" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "interleave" [ "outer"; "inner"; "outer2" ] (List.rev !log)

let test_deadlock_detectable () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  Engine.spawn eng (fun () -> Cond.wait c);
  Engine.run eng;
  Alcotest.(check int) "blocked fiber alive" 1 (Engine.alive eng)

(* --- Cond ----------------------------------------------------------- *)

let test_cond_signal_wakes_one () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  let woke = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Cond.wait c;
        incr woke)
  done;
  Engine.schedule eng 10 (fun () -> Cond.signal c);
  Engine.run eng;
  Alcotest.(check int) "one woke" 1 !woke;
  Alcotest.(check int) "two blocked" 2 (Engine.alive eng)

let test_cond_broadcast_wakes_all () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  let woke = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Cond.wait c;
        incr woke)
  done;
  Engine.schedule eng 10 (fun () -> Cond.broadcast c);
  Engine.run eng;
  Alcotest.(check int) "all woke" 3 !woke

let test_cond_timeout () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  let result = ref `Ok in
  Engine.spawn eng (fun () -> result := Cond.wait_timeout c (Time.us 100));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!result = `Timeout);
  Alcotest.(check int) "clock advanced" (Time.us 100) (Engine.now eng);
  Alcotest.(check int) "waiter removed" 0 (Cond.waiters c)

let test_cond_signal_beats_timeout () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  let result = ref `Timeout in
  Engine.spawn eng (fun () -> result := Cond.wait_timeout c (Time.us 100));
  Engine.schedule eng (Time.us 10) (fun () -> Cond.signal c);
  Engine.run eng;
  Alcotest.(check bool) "ok" true (!result = `Ok)

let test_cond_until () =
  let eng = Engine.create () in
  let c = Cond.create eng in
  let box = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Cond.until c (fun () -> !box));
  Engine.schedule eng 10 (fun () ->
      (* spurious signal with no value: fiber must keep waiting *)
      Cond.signal c);
  Engine.schedule eng 20 (fun () ->
      box := Some 42;
      Cond.signal c);
  Engine.run eng;
  Alcotest.(check int) "value" 42 !got

(* --- Cpu ------------------------------------------------------------ *)

let test_cpu_serializes () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    Engine.spawn eng (fun () ->
        Cpu.consume cpu ~prio:Cpu.User (Time.us 10);
        done_at.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  Alcotest.(check int) "first" (Time.us 10) done_at.(0);
  Alcotest.(check int) "second serialized" (Time.us 20) done_at.(1);
  Alcotest.(check int) "busy time" (Time.us 20) (Cpu.busy_time cpu)

let test_cpu_priority () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let order = ref [] in
  (* Occupy the CPU, then queue a user and an interrupt waiter. *)
  Engine.spawn eng (fun () ->
      Cpu.consume cpu ~prio:Cpu.User (Time.us 10);
      order := "owner" :: !order);
  Engine.schedule eng 1 (fun () ->
      Engine.spawn eng (fun () ->
          Cpu.consume cpu ~prio:Cpu.User (Time.us 10);
          order := "user" :: !order));
  Engine.schedule eng 2 (fun () ->
      Engine.spawn eng (fun () ->
          Cpu.consume cpu ~prio:Cpu.Interrupt (Time.us 1);
          order := "intr" :: !order));
  Engine.run eng;
  Alcotest.(check (list string))
    "interrupt preferred" [ "owner"; "intr"; "user" ] (List.rev !order)

let test_cpu_zero_cost_no_acquire () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  Engine.spawn eng (fun () ->
      Cpu.consume cpu ~prio:Cpu.User 0;
      Alcotest.(check int) "no time" 0 (Engine.now eng));
  Engine.run eng

(* --- Mailbox -------------------------------------------------------- *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.schedule eng 10 (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocks_until_send () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let at = ref 0 in
  Engine.spawn eng (fun () ->
      ignore (Mailbox.recv mb);
      at := Engine.now eng);
  Engine.schedule eng (Time.us 50) (fun () -> Mailbox.send mb ());
  Engine.run eng;
  Alcotest.(check int) "woke at send" (Time.us 50) !at

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let r = ref (Some 0) in
  Engine.spawn eng (fun () -> r := Mailbox.recv_timeout mb (Time.us 10));
  Engine.run eng;
  Alcotest.(check (option int)) "timeout none" None !r

(* [Mailbox.serve] against the fiber it replaces: twin engines run the
   same producers, one draining the mailbox with [serve], the other with
   a spawned [recv] loop. Bursts land at shared instants and handlers
   block for a while, so messages arrive while the consumer is parked,
   while it runs and while it sleeps; a bystander fiber traces at the
   same instants, so any change in seq order shows in the trace. A
   third engine serves with a first pass that finishes a random subset
   of the messages that need no sleep (every [k]th tag), so finished
   and blocking messages interleave at the head of the queue. *)
type burst = { at : int; msgs : int; work : int }

let gen_bursts =
  QCheck.Gen.(
    list_size (0 -- 12)
      (map3
         (fun at msgs work -> { at; msgs; work })
         (int_bound 6) (int_bound 4) (int_bound 3)))

let show_bursts bs =
  String.concat "; "
    (List.map
       (fun b -> Printf.sprintf "{at=%d msgs=%d work=%d}" b.at b.msgs b.work)
       bs)

let run_consumer ?(nonblocking_every = 0) ~serve bursts =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let trace = ref [] in
  let note tag = trace := (Engine.now eng, tag) :: !trace in
  let handle (tag, work) =
    note tag;
    if work > 0 then Engine.sleep eng work;
    note (-tag)
  in
  let nonblocking (tag, work) =
    work = 0
    && nonblocking_every > 0
    && tag mod nonblocking_every = 0
    && begin
      note tag;
      note (-tag);
      true
    end
  in
  if serve then Mailbox.serve mb ~name:"consumer" ~nonblocking handle
  else
    Engine.spawn eng ~name:"consumer" (fun () ->
        let rec loop () =
          handle (Mailbox.recv mb);
          loop ()
        in
        loop ());
  List.iteri
    (fun i b ->
      (* half the bursts come from a callback, half from a fiber *)
      let send () =
        for j = 1 to b.msgs do
          Mailbox.send mb ((100 * (i + 1)) + j, b.work)
        done
      in
      if i mod 2 = 0 then Engine.schedule eng b.at send
      else
        Engine.spawn eng (fun () ->
            Engine.sleep eng b.at;
            send ();
            note (1000 + i)))
    bursts;
  Engine.spawn eng ~name:"bystander" (fun () ->
      for _ = 1 to 8 do
        note 0;
        Engine.sleep eng 1
      done);
  Engine.run eng;
  (List.rev !trace, Engine.events_scheduled eng, Engine.alive eng)

let prop_serve_matches_recv_loop =
  QCheck.Test.make ~name:"mailbox: serve equals a spawned recv loop"
    ~count:500
    (QCheck.make
       ~print:(fun (k, bs) -> Printf.sprintf "k=%d %s" k (show_bursts bs))
       QCheck.Gen.(pair (1 -- 3) gen_bursts))
    (fun (k, bursts) ->
      let trace, events, alive = run_consumer ~serve:true bursts in
      let trace', events', alive' = run_consumer ~serve:false bursts in
      let trace'', events'', alive'' =
        run_consumer ~nonblocking_every:k ~serve:true bursts
      in
      trace = trace' && events = events' && trace'' = trace
      && events'' = events
      (* the parked consumer is no fiber; the recv loop stays blocked *)
      && alive = 0
      && alive'' = 0
      && alive' = 1)

(* an exception from the handler ends the consumer like a dying fiber *)
let test_serve_failure () =
  let eng = Engine.create () in
  let died_at = ref (-1) in
  let mb = Mailbox.create eng in
  let seen = ref [] in
  Mailbox.serve mb ~name:"served" (fun x ->
      Engine.sleep eng 5;
      if x = 2 then begin
        died_at := Engine.now eng;
        failwith "serve boom"
      end;
      seen := x :: !seen);
  Engine.schedule eng 10 (fun () -> List.iter (Mailbox.send mb) [ 1; 2; 3 ]);
  Engine.schedule eng 50 (fun () -> Mailbox.send mb 4);
  (match Engine.run eng with
  | () -> Alcotest.fail "serve failure not reported"
  | exception Failure _ -> ());
  Alcotest.(check (list (pair string string)))
    "failures"
    [ ("served", "Failure(\"serve boom\")") ]
    (List.map (fun (n, e) -> (n, Printexc.to_string e)) (Engine.failures eng));
  Alcotest.(check int) "died at" 20 !died_at;
  Alcotest.(check (list int)) "handled before the failure" [ 1 ] !seen;
  Alcotest.(check int) "alive" 0 (Engine.alive eng);
  Alcotest.(check int) "left queued" 2 (Mailbox.length mb)

(* --- determinism ---------------------------------------------------- *)

let run_simulation seed =
  let eng = Engine.create ~seed () in
  let cpu = Cpu.create eng in
  let log = Buffer.create 64 in
  for i = 1 to 5 do
    Engine.spawn eng (fun () ->
        let r = Engine.rng eng in
        Engine.sleep eng (Psd_util.Rng.int r 1000);
        Cpu.consume cpu ~prio:Cpu.User (Psd_util.Rng.int r 1000 + 1);
        Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now eng)))
  done;
  Engine.run eng;
  Buffer.contents log

let test_determinism () =
  Alcotest.(check string)
    "same seed same trace" (run_simulation 11) (run_simulation 11);
  Alcotest.(check bool)
    "different seed different trace" true
    (run_simulation 11 <> run_simulation 12)

(* --- Timing wheel ---------------------------------------------------- *)

let test_wheel_same_key_fifo () =
  let w = Wheel.create ~dummy:(-1) () in
  for i = 0 to 9 do
    ignore (Wheel.insert w ~key:100 ~seq:i i)
  done;
  let out = List.init 10 (fun _ -> Wheel.pop_min w) in
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] out;
  Alcotest.(check bool) "empty" true (Wheel.is_empty w)

let test_wheel_cascade_boundaries () =
  (* keys straddling slot/level boundaries pop in key order *)
  let w = Wheel.create ~dummy:(-1) () in
  let keys = [ 255; 256; 257; 65535; 65536; 16777216; 1; 0 ] in
  List.iteri (fun i k -> ignore (Wheel.insert w ~key:k ~seq:i k)) keys;
  let out = List.init (List.length keys) (fun _ -> Wheel.pop_min w) in
  Alcotest.(check (list int))
    "sorted" (List.sort compare keys) out

(* [step] and every sleep-bypass check read the wheel minimum: a warm
   lookup must not allocate *)
let test_wheel_min_no_alloc () =
  let w = Wheel.create ~dummy:(-1) () in
  List.iteri
    (fun i k -> ignore (Wheel.insert w ~key:k ~seq:i k))
    [ 70; 5; 300 ];
  ignore (Wheel.min_key w);
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Wheel.min_key w + Wheel.min_seq w
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minimum read" (10_000 * (5 + 1)) !sum;
  Alcotest.(check int) "minor words" 0 (int_of_float words)

(* Every topology builds an engine, so a fresh wheel must cost its slot
   arrays only, not a sentinel for each of its [levels * slots]
   buckets *)
let test_wheel_create_lazy_sentinels () =
  let before = Gc.minor_words () in
  let w = Wheel.create ~dummy:(-1) () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "slot arrays only (%.0f words)" words)
    true (words < 800.);
  ignore (Wheel.insert w ~key:5 ~seq:0 5);
  Alcotest.(check int) "still pops" 5 (Wheel.pop_min w);
  (* every simulated topology builds an engine, so its size is set-up
     cost: 933 words with 11 rows of 64, 2,268 with 8 rows of 256 *)
  let before = Gc.minor_words () in
  let (_ : Engine.t) = Engine.create () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Engine.create allocates %.0f <= 1,000 words" words)
    true (words <= 1_000.)

let test_wheel_cancel_min () =
  let w = Wheel.create ~dummy:(-1) () in
  let a = Wheel.insert w ~key:10 ~seq:0 1 in
  let _b = Wheel.insert w ~key:20 ~seq:1 2 in
  Alcotest.(check int) "min is a" 10 (Wheel.min_key w);
  Wheel.cancel w a;
  Wheel.cancel w a (* idempotent *);
  Alcotest.(check int) "min now b" 20 (Wheel.min_key w);
  Alcotest.(check int) "pops b" 2 (Wheel.pop_min w);
  Alcotest.(check bool) "empty" true (Wheel.is_empty w)

let test_wheel_reinsert_after_cancel () =
  let w = Wheel.create ~dummy:(-1) () in
  let n = Wheel.insert w ~key:50 ~seq:0 1 in
  Wheel.cancel w n;
  Wheel.reinsert w n ~key:30 ~seq:1 2;
  Alcotest.(check bool) "active" true (Wheel.active n);
  Alcotest.(check int) "new key" 30 (Wheel.min_key w);
  Alcotest.(check int) "new value" 2 (Wheel.pop_min w);
  Alcotest.(check bool) "inactive after fire" false (Wheel.active n)

(* Differential property backing the timer migration: a wheel and the
   4-ary heap fed the same (key, seq) stream — under random insert /
   cancel / advance (pop) interleavings, with re-arms reusing cancelled
   nodes — fire the exact same (key, seq, value) sequence. Keys span
   several wheel levels so the cascade paths are exercised, and every
   insert respects the advance-to-min-only restriction (key >= the last
   popped key), exactly as Engine.timer_arm guarantees. *)
let prop_wheel_heap_differential =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun d -> `Ins d) (int_bound 255));
          (2, map (fun d -> `Ins d) (int_bound 65_535));
          (2, map (fun d -> `Ins d) (int_bound (1 lsl 24)));
          (1, map (fun d -> `Ins d) (int_bound (1 lsl 40)));
          (3, map (fun i -> `Cancel i) (int_bound 10_000));
          (3, return `Pop);
        ])
  in
  let print_op = function
    | `Ins d -> Printf.sprintf "Ins %d" d
    | `Cancel i -> Printf.sprintf "Cancel %d" i
    | `Pop -> "Pop"
  in
  QCheck.Test.make ~name:"wheel: fires in heap (key, seq) order" ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 150)
        (make ~print:print_op op_gen))
    (fun ops ->
      let w = Wheel.create ~dummy:(-1) () in
      let h = Psd_util.Heap.create ~filler:(-1) in
      let seq = ref 0 in
      let floor = ref 0 in
      (* live: (seq, node) for entries possibly still armed; freed:
         unlinked nodes available for reinsert *)
      let live = ref [] in
      let freed = ref [] in
      let cancelled = Hashtbl.create 64 in
      let wheel_fired = ref [] in
      let heap_fired = ref [] in
      let pop_heap_live () =
        let rec go () =
          if Psd_util.Heap.is_empty h then None
          else begin
            let k = Psd_util.Heap.min_key h in
            let s = Psd_util.Heap.min_seq h in
            let v = Psd_util.Heap.pop_min h in
            if Hashtbl.mem cancelled s then go () else Some (k, s, v)
          end
        in
        go ()
      in
      let pop_both () =
        match pop_heap_live () with
        | None ->
          if not (Wheel.is_empty w) then
            QCheck.Test.fail_report "wheel non-empty after heap drained"
        | Some (k, s, v) ->
          heap_fired := (k, s, v) :: !heap_fired;
          let wk = Wheel.min_key w in
          let ws = Wheel.min_seq w in
          let wv = Wheel.pop_min w in
          floor := k;
          wheel_fired := (wk, ws, wv) :: !wheel_fired
      in
      let insert delta =
        let key = !floor + delta in
        let s = !seq in
        incr seq;
        let node =
          match !freed with
          | n :: rest ->
            freed := rest;
            Wheel.reinsert w n ~key ~seq:s s;
            n
          | [] -> Wheel.insert w ~key ~seq:s s
        in
        Psd_util.Heap.push_seq h ~key ~seq:s s;
        live := (s, node) :: !live
      in
      List.iter
        (function
          | `Ins delta -> insert delta
          | `Pop -> pop_both ()
          | `Cancel i -> (
            match !live with
            | [] -> ()
            | l ->
              let n = List.length l in
              let idx = i mod n in
              let s, node = List.nth l idx in
              live := List.filteri (fun j _ -> j <> idx) l;
              if Wheel.active node then begin
                Wheel.cancel w node;
                Hashtbl.replace cancelled s ();
                freed := node :: !freed
              end))
        ops;
      while not (Psd_util.Heap.is_empty h) do
        pop_both ()
      done;
      if not (Wheel.is_empty w) then
        QCheck.Test.fail_report "wheel retains entries after drain";
      !wheel_fired = !heap_fired)

(* Cross-queue ordering: timers (wheel) and scheduled events (heap)
   due at the same instant fire in global arm/schedule order, because
   both draw seqs from the engine's single counter. *)
let test_timer_heap_same_instant_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  let push tag () = log := tag :: !log in
  let t1 = Engine.timer () and t2 = Engine.timer () in
  Engine.schedule eng 100 (push "h1");
  Engine.timer_arm eng t1 100 (push "w1");
  Engine.schedule eng 100 (push "h2");
  Engine.timer_arm eng t2 100 (push "w2");
  Engine.schedule eng 100 (push "h3");
  Engine.run eng;
  Alcotest.(check (list string))
    "arm order" [ "h1"; "w1"; "h2"; "w2"; "h3" ] (List.rev !log)

let test_timer_cancel_and_rearm () =
  let eng = Engine.create () in
  let fired = ref [] in
  let t = Engine.timer () in
  Engine.timer_arm eng t 50 (fun () -> fired := 50 :: !fired);
  (* re-arm before expiry: only the new deadline fires *)
  Engine.schedule eng 10 (fun () ->
      Engine.timer_arm eng t 200 (fun () ->
          fired := Engine.now eng :: !fired));
  Engine.run eng;
  Alcotest.(check (list int)) "one firing, re-armed deadline" [ 210 ] !fired;
  let t2 = Engine.timer () in
  Engine.timer_arm eng t2 30 (fun () -> fired := -1 :: !fired);
  Engine.timer_cancel eng t2;
  Engine.run eng;
  Alcotest.(check (list int)) "cancelled never fires" [ 210 ] !fired

let prop_sleep_sums =
  QCheck.Test.make ~name:"engine: sequential sleeps sum" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (int_bound 10_000))
    (fun sleeps ->
      let eng = Engine.create () in
      let finished = ref 0 in
      Engine.spawn eng (fun () ->
          List.iter (Engine.sleep eng) sleeps;
          finished := Engine.now eng);
      Engine.run eng;
      !finished = List.fold_left ( + ) 0 sleeps)

(* --- Dispatch order against a reference scheduler -------------------- *)

(* Random programs over every way of queueing work — [schedule] (dt = 0
   included), [schedule_abs], [spawn], [sleep], [suspend]/resume,
   [after] and its cancel (a [schedule] whose callback checks a flag,
   the idiom of one-shot deadlines whose owner may lose interest),
   [timer_arm]/[timer_cancel] — run once on the
   engine and once on a reference scheduler kept here: one list of
   pending events, dispatched by (time, push order). The engine splits
   its queue three ways (zero-delay lane, heap, timer wheel) and skips
   the queue for uncontended sleeps; none of that may show in the trace
   of callbacks or in [events_scheduled]. *)

type act =
  | Log of int
  | Sched of int * act list
  | Abs of int * act list
  | After of int * int * act list (* token slot, delay, body *)
  | Cancel of int
  | Arm of int * int * act list (* timer slot, delay, body *)
  | Disarm of int
  | Spawn of step list
  | Resume of int

and step = Do of act | Sleep of int | Suspend of int

(* What a program needs from a scheduler. Fiber steps take their
   continuation: the engine runs it in direct style after blocking, the
   reference queues it. *)
type backend = {
  now : unit -> int;
  schedule : int -> (unit -> unit) -> unit;
  schedule_abs : int -> (unit -> unit) -> unit;
  after : int -> (unit -> unit) -> unit -> unit;
  arm : int -> int -> (unit -> unit) -> unit;
  disarm : int -> unit;
  spawn : (unit -> unit) -> unit;
  sleep : int -> (unit -> unit) -> unit;
  suspend : int -> (unit -> unit) -> unit;
  resume : int -> unit;
  run_for : int -> unit;
  run : unit -> unit;
  scheduled : unit -> int;
}

let slots = 3

let interpret b slices =
  let trace = ref [] in
  let cancels = Array.make slots None in
  let rec exec = function
    | Log id -> trace := (id, b.now ()) :: !trace
    | Sched (d, body) -> b.schedule d (fun () -> List.iter exec body)
    | Abs (d, body) ->
      b.schedule_abs (b.now () + d) (fun () -> List.iter exec body)
    | After (i, d, body) ->
      cancels.(i) <- Some (b.after d (fun () -> List.iter exec body))
    | Cancel i -> Option.iter (fun c -> c ()) cancels.(i)
    | Arm (i, d, body) -> b.arm i d (fun () -> List.iter exec body)
    | Disarm i -> b.disarm i
    | Spawn steps -> b.spawn (fun () -> fiber steps)
    | Resume i -> b.resume i
  and fiber = function
    | [] -> ()
    | Do a :: rest ->
      exec a;
      fiber rest
    | Sleep d :: rest -> b.sleep d (fun () -> fiber rest)
    | Suspend i :: rest -> b.suspend i (fun () -> fiber rest)
  in
  List.iter
    (fun (acts, d) ->
      List.iter exec acts;
      b.run_for d)
    slices;
  b.run ();
  (List.rev !trace, b.now (), b.scheduled ())

(* [run_for]/[run] drive the engine: directly, or through a one-shard
   {!Shard} whose rounds ([run_below] plus [advance_to]) must dispatch
   exactly as [Engine.run_until] does — the workloads' drivers rely on
   it. *)
let engine_backend_on eng ~run_for ~run =
  let timers = Array.init slots (fun _ -> Engine.timer ()) in
  let waiting = Array.make slots None in
  {
    now = (fun () -> Engine.now eng);
    schedule = Engine.schedule eng;
    schedule_abs = (fun key f -> Engine.schedule_abs eng ~key f);
    after =
      (fun d f ->
        let live = ref true in
        Engine.schedule eng d (fun () -> if !live then f ());
        fun () -> live := false);
    arm = (fun i d f -> Engine.timer_arm eng timers.(i) d f);
    disarm = (fun i -> Engine.timer_cancel eng timers.(i));
    spawn = (fun f -> Engine.spawn eng f);
    sleep =
      (fun d k ->
        Engine.sleep eng d;
        k ());
    suspend =
      (fun i k ->
        Engine.suspend eng (fun resume -> waiting.(i) <- Some resume);
        k ());
    resume =
      (fun i ->
        match waiting.(i) with
        | Some r ->
          waiting.(i) <- None;
          r ()
        | None -> ());
    run_for;
    run;
    scheduled = (fun () -> Engine.events_scheduled eng);
  }

let engine_backend () =
  let eng = Engine.create () in
  engine_backend_on eng ~run_for:(Engine.run_for eng) ~run:(fun () ->
      Engine.run eng)

let shard_backend () =
  let sh = Shard.create ~n:1 () in
  engine_backend_on (Shard.engine sh 0) ~run_for:(Shard.run_for sh)
    ~run:(fun () -> Shard.run sh)

(* The reference: pending events in one list, the (key, seq) minimum
   dispatched next. A cancelled [after] stays queued as a no-op until
   its deadline; a disarmed or re-armed timer leaves the queue. A sleep
   with nothing queued at or before its deadline (and inside the
   [run_for] bound) advances the clock in place, as the engine's does;
   any other sleep is a timer event that re-queues the fiber at delay
   0, drawing its second seq when it fires. *)
type ev = { key : int; seq : int; fire : unit -> unit }

let reference_backend () =
  let now = ref 0 and seq = ref 0 and queue = ref [] in
  let horizon = ref max_int in
  let timers = Array.make slots None in
  let waiting = Array.make slots None in
  let push key fire =
    let e = { key; seq = !seq; fire } in
    incr seq;
    queue := e :: !queue;
    e
  in
  let remove e = queue := List.filter (fun x -> x != e) !queue in
  let first () =
    List.fold_left
      (fun best e ->
        match best with
        | Some b when (b.key, b.seq) < (e.key, e.seq) -> best
        | _ -> Some e)
      None !queue
  in
  let rec dispatch stop =
    match first () with
    | Some e when e.key <= stop ->
      remove e;
      now := e.key;
      e.fire ();
      dispatch stop
    | _ -> ()
  in
  let schedule d f = ignore (push (!now + d) f) in
  let disarm i =
    Option.iter remove timers.(i);
    timers.(i) <- None
  in
  {
    now = (fun () -> !now);
    schedule;
    schedule_abs = (fun key f -> ignore (push key f));
    after =
      (fun d f ->
        let live = ref true in
        schedule d (fun () -> if !live then f ());
        fun () -> live := false);
    arm =
      (fun i d f ->
        disarm i;
        timers.(i) <-
          Some
            (push (!now + d) (fun () ->
                 timers.(i) <- None;
                 f ())));
    disarm;
    spawn = (fun f -> schedule 0 f);
    sleep =
      (fun d k ->
        let target = !now + d in
        if target <= !horizon && List.for_all (fun e -> e.key > target) !queue
        then begin
          now := target;
          k ()
        end
        else schedule d (fun () -> schedule 0 k));
    suspend = (fun i k -> waiting.(i) <- Some (fun () -> schedule 0 k));
    resume =
      (fun i ->
        match waiting.(i) with
        | Some r ->
          waiting.(i) <- None;
          r ()
        | None -> ());
    run_for =
      (fun d ->
        let stop = !now + d in
        horizon := stop;
        dispatch stop;
        horizon := max_int;
        if !now < stop then now := stop);
    run = (fun () -> dispatch max_int);
    scheduled = (fun () -> !seq);
  }

(* Generation: delays mostly 0 or tiny, so same-instant bursts and key
   ties between the three queues are the common case; [run_for] slices
   end on those instants too. Log ids are assigned afterwards, in
   program order. *)
let gen_slices =
  let open QCheck.Gen in
  let delay = frequency [ (4, return 0); (4, 1 -- 3); (1, 4 -- 40) ] in
  let slot = 0 -- (slots - 1) in
  let rec act n =
    if n <= 0 then return (Log 0)
    else
      frequency
        [
          (3, return (Log 0));
          (3, map2 (fun d b -> Sched (d, b)) delay (acts (n - 1)));
          (1, map2 (fun d b -> Abs (d, b)) delay (acts (n - 1)));
          (2, map3 (fun i d b -> After (i, d, b)) slot delay (acts (n - 1)));
          (1, map (fun i -> Cancel i) slot);
          (2, map3 (fun i d b -> Arm (i, d, b)) slot delay (acts (n - 1)));
          (1, map (fun i -> Disarm i) slot);
          (2, map (fun s -> Spawn s) (steps (n - 1)));
          (2, map (fun i -> Resume i) slot);
        ]
  and acts n = list_size (0 -- 3) (act n)
  and steps n =
    list_size (0 -- 5)
      (frequency
         [
           (3, map (fun a -> Do a) (act n));
           (3, map (fun d -> Sleep d) delay);
           (1, map (fun i -> Suspend i) slot);
         ])
  in
  list_size (1 -- 6) (pair (acts 4) (frequency [ (2, return 0); (3, 1 -- 6) ]))

let number slices =
  let next = ref 0 in
  let rec act = function
    | Log _ ->
      incr next;
      Log !next
    | Sched (d, b) -> Sched (d, List.map act b)
    | Abs (d, b) -> Abs (d, List.map act b)
    | After (i, d, b) -> After (i, d, List.map act b)
    | Arm (i, d, b) -> Arm (i, d, List.map act b)
    | Spawn s -> Spawn (List.map step s)
    | (Cancel _ | Disarm _ | Resume _) as a -> a
  and step = function
    | Do a -> Do (act a)
    | (Sleep _ | Suspend _) as s -> s
  in
  List.map (fun (acts, d) -> (List.map act acts, d)) slices

let rec show_act = function
  | Log i -> Printf.sprintf "Log %d" i
  | Sched (d, b) -> Printf.sprintf "Sched(%d,%s)" d (show_acts b)
  | Abs (d, b) -> Printf.sprintf "Abs(%d,%s)" d (show_acts b)
  | After (i, d, b) -> Printf.sprintf "After(%d,%d,%s)" i d (show_acts b)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Arm (i, d, b) -> Printf.sprintf "Arm(%d,%d,%s)" i d (show_acts b)
  | Disarm i -> Printf.sprintf "Disarm %d" i
  | Spawn s ->
    Printf.sprintf "Spawn[%s]"
      (String.concat ";"
         (List.map
            (function
              | Do a -> show_act a
              | Sleep d -> Printf.sprintf "Sleep %d" d
              | Suspend i -> Printf.sprintf "Suspend %d" i)
            s))
  | Resume i -> Printf.sprintf "Resume %d" i

and show_acts b = "[" ^ String.concat ";" (List.map show_act b) ^ "]"

let prop_dispatch_order =
  let print slices =
    String.concat " "
      (List.map
         (fun (acts, d) -> Printf.sprintf "%s run_for %d" (show_acts acts) d)
         slices)
  in
  QCheck.Test.make
    ~name:"engine: dispatch order equals a (time, push order) reference"
    ~count:500
    (QCheck.make ~print (QCheck.Gen.map number gen_slices))
    (fun slices ->
      let want = interpret (reference_backend ()) slices in
      interpret (engine_backend ()) slices = want
      && interpret (shard_backend ()) slices = want)

(* --- Fiber charges vs continuation charges ---------------------------- *)

(* One random program, run twice: once with every chain of charges in a
   fiber ([Cpu.consume], [Engine.sleep]), once as a fiber-less task
   ([Cpu.consume_k], [Engine.sleep_k]). Chains start at overlapping
   instants at random priorities, so bands contend and waiters are handed
   the CPU; unrelated heap and lane events interleave with them. The two
   engines must agree on every completion (time and tag), on the number
   of events scheduled, and on each CPU's busy time. *)
type cstep = Charge of int * Cpu.prio * int | Wait of int

type cprog = {
  ncpu : int;
  chains : (int * cstep list) list; (* start delay, steps *)
  events : (int * int option) list; (* delay, child delay at fire *)
}

let show_prio = function
  | Cpu.Interrupt -> "I"
  | Cpu.Kernel -> "K"
  | Cpu.User -> "U"

let show_cprog p =
  let step = function
    | Charge (c, prio, ns) -> Printf.sprintf "C%d%s%d" c (show_prio prio) ns
    | Wait ns -> Printf.sprintf "W%d" ns
  in
  Printf.sprintf "ncpu=%d chains=[%s] events=[%s]" p.ncpu
    (String.concat "; "
       (List.map
          (fun (d, steps) ->
            Printf.sprintf "@%d %s" d (String.concat " " (List.map step steps)))
          p.chains))
    (String.concat "; "
       (List.map
          (fun (d, child) ->
            match child with
            | Some c -> Printf.sprintf "@%d+%d" d c
            | None -> Printf.sprintf "@%d" d)
          p.events))

let gen_cprog =
  let open QCheck.Gen in
  let prio = oneofl [ Cpu.Interrupt; Cpu.Kernel; Cpu.User ] in
  let amount = frequency [ (2, return 0); (5, 1 -- 10); (2, 11 -- 40) ] in
  let start = frequency [ (3, return 0); (3, 1 -- 15); (1, 16 -- 60) ] in
  1 -- 3 >>= fun ncpu ->
  let step =
    frequency
      [
        (5, map3 (fun c p n -> Charge (c, p, n)) (0 -- (ncpu - 1)) prio amount);
        (1, map (fun n -> Wait n) amount);
      ]
  in
  list_size (1 -- 8) (pair start (list_size (1 -- 5) step)) >>= fun chains ->
  list_size (0 -- 8) (pair (0 -- 40) (opt (0 -- 10))) >|= fun events ->
  { ncpu; chains; events }

let run_charges ~cps p =
  let eng = Engine.create () in
  let cpus = Array.init p.ncpu (fun _ -> Cpu.create eng) in
  let log = ref [] in
  let note tag = log := (Engine.now eng, tag) :: !log in
  let task = Engine.Task.create eng ~name:"charges" in
  let launch i steps =
    if cps then begin
      let rec go j = function
        | [] -> Engine.Task.finish task
        | step :: rest -> (
          let k () =
            note ((100 * i) + j);
            go (j + 1) rest
          in
          match step with
          | Charge (c, prio, ns) -> Cpu.consume_k cpus.(c) ~prio ns k ()
          | Wait ns ->
            if Engine.sleep_inline eng ns then k () else Engine.sleep_k eng ns k)
      in
      Engine.Task.start task (go 0) steps
    end
    else
      Engine.spawn eng (fun () ->
          List.iteri
            (fun j step ->
              (match step with
              | Charge (c, prio, ns) -> Cpu.consume cpus.(c) ~prio ns
              | Wait ns -> Engine.sleep eng ns);
              note ((100 * i) + j))
            steps)
  in
  List.iteri
    (fun i (d, steps) -> Engine.schedule eng d (fun () -> launch i steps))
    p.chains;
  List.iteri
    (fun i (d, child) ->
      Engine.schedule eng d (fun () ->
          note (10_000 + i);
          Option.iter
            (fun c -> Engine.schedule eng c (fun () -> note (20_000 + i)))
            child))
    p.events;
  Engine.run eng;
  ( List.rev !log,
    Engine.events_scheduled eng,
    Array.to_list (Array.map Cpu.busy_time cpus),
    Engine.alive eng )

let prop_fiber_vs_continuation_charges =
  QCheck.Test.make
    ~name:"cpu: continuation charges equal fiber charges" ~count:500
    (QCheck.make ~print:show_cprog gen_cprog)
    (fun p -> run_charges ~cps:false p = run_charges ~cps:true p)

(* A stage that raises after its charge waited for the CPU is reported
   like a dying fiber, and ends the task. *)
let test_task_stage_failure () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng in
  let died_at = ref (-1) in
  let task = Engine.Task.create eng ~name:"blocked" in
  Engine.spawn eng (fun () -> Cpu.consume cpu ~prio:Cpu.User 10);
  Engine.Task.start task
    (fun () ->
      Cpu.consume_k cpu ~prio:Cpu.Interrupt 5
        (Engine.Task.stage task (fun () ->
             died_at := Engine.now eng;
             failwith "stage boom"))
        ())
    ();
  (match Engine.run eng with
  | () -> Alcotest.fail "stage failure not reported"
  | exception Failure _ -> ());
  Alcotest.(check (list (pair string string)))
    "failures"
    [ ("blocked", "Failure(\"stage boom\")") ]
    (List.map (fun (n, e) -> (n, Printexc.to_string e)) (Engine.failures eng));
  Alcotest.(check int) "died at" 15 !died_at;
  Alcotest.(check int) "alive" 0 (Engine.alive eng)

(* --- Shard ----------------------------------------------------------- *)

let two_shards () =
  let sh = Shard.create ~n:2 () in
  Shard.set_lookahead sh ~src:0 ~dst:1 10;
  Shard.set_lookahead sh ~src:1 ~dst:0 10;
  sh

let test_shard_post_delivery () =
  let sh = two_shards () in
  let log = ref [] in
  Engine.schedule (Shard.engine sh 0) 0 (fun () ->
      Shard.post sh ~src:0 ~dst:1 ~key:30 (fun () -> log := 30 :: !log);
      Shard.post sh ~src:0 ~dst:1 ~key:20 (fun () -> log := 20 :: !log);
      Shard.post sh ~src:0 ~dst:1 ~key:40 (fun () -> log := 40 :: !log));
  Shard.run ~domains:false sh;
  Alcotest.(check (list int)) "key order" [ 20; 30; 40 ] (List.rev !log);
  Alcotest.(check int) "posted" 3 (Shard.posted sh);
  Alcotest.(check int) "receiver clock" 40 (Engine.now (Shard.engine sh 1))

let test_shard_same_key_fifo () =
  let sh = two_shards () in
  let log = ref [] in
  Engine.schedule (Shard.engine sh 0) 0 (fun () ->
      for i = 1 to 5 do
        Shard.post sh ~src:0 ~dst:1 ~key:50 (fun () -> log := i :: !log)
      done);
  Shard.run ~domains:false sh;
  Alcotest.(check (list int)) "fifo at one instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_shard_post_validation () =
  let sh = Shard.create ~n:2 () in
  (try
     Shard.post sh ~src:0 ~dst:1 ~key:100 ignore;
     Alcotest.fail "post without a link accepted"
   with Invalid_argument _ -> ());
  (try
     Shard.set_lookahead sh ~src:0 ~dst:1 0;
     Alcotest.fail "zero lookahead accepted"
   with Invalid_argument _ -> ());
  Shard.set_lookahead sh ~src:0 ~dst:1 10;
  (try
     Shard.post sh ~src:0 ~dst:1 ~key:5 ignore;
     Alcotest.fail "lookahead violation accepted"
   with Invalid_argument _ -> ());
  Shard.post sh ~src:0 ~dst:1 ~key:10 ignore;
  Alcotest.(check int) "valid post accepted" 1 (Shard.posted sh)

(* Cross-shard ping-pong: the transcript must not depend on the driver. *)
let shard_pingpong domains =
  let sh = two_shards () in
  let log0 = ref [] and log1 = ref [] in
  let rec bounce side key () =
    let l = if side = 0 then log0 else log1 in
    l := key :: !l;
    if key < 2000 then
      Shard.post sh ~src:side ~dst:(1 - side) ~key:(key + 17)
        (bounce (1 - side) (key + 17))
  in
  Engine.schedule (Shard.engine sh 0) 0 (bounce 0 0);
  Shard.run ~domains sh;
  (List.rev !log0, List.rev !log1, Shard.rounds sh)

let test_shard_pingpong_deterministic () =
  let seq = shard_pingpong false in
  let dom = shard_pingpong true in
  let dom' = shard_pingpong true in
  let pp_t = Alcotest.(triple (list int) (list int) int) in
  Alcotest.check pp_t "domains == sequential" seq dom;
  Alcotest.check pp_t "domain runs repeat" dom dom';
  let l0, l1, _ = seq in
  Alcotest.(check bool) "both sides fired" true (l0 <> [] && l1 <> [])

let test_shard_failure_aborts () =
  let sh = two_shards () in
  Engine.schedule (Shard.engine sh 0) 5 (fun () -> failwith "boom");
  (* give the other shard a long event chain it must NOT finish *)
  let count = ref 0 in
  let rec chain key () =
    incr count;
    if key < 100_000 then
      Engine.schedule_abs (Shard.engine sh 1) ~key:(key + 10) (chain (key + 10))
  in
  Engine.schedule_abs (Shard.engine sh 1) ~key:1 (chain 1);
  (match Shard.run ~domains:true sh with
  | () -> Alcotest.fail "expected the failure to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "original error" "boom" msg);
  Alcotest.(check bool) "peer stopped early" true (!count < 10_000)

(* A fiber that dies on another shard is reported by name, in the
   engine's own words. *)
let test_shard_failure_named () =
  let sh = two_shards () in
  Engine.spawn (Shard.engine sh 1) ~name:"far" (fun () ->
      Engine.sleep (Shard.engine sh 1) 25;
      failwith "boom");
  match Shard.run ~domains:false sh with
  | () -> Alcotest.fail "expected the failure to be reported"
  | exception Failure msg ->
    Alcotest.(check string) "names the fiber"
      "Shard.run: 1 fiber failure(s); first: fiber far died: \
       Failure(\"boom\")"
      msg

let test_shard_run_for_advances () =
  let sh = two_shards () in
  Shard.run_for ~domains:false sh 1000;
  Alcotest.(check int) "shard 0 clock" 1000 (Engine.now (Shard.engine sh 0));
  Alcotest.(check int) "shard 1 clock" 1000 (Engine.now (Shard.engine sh 1))

(* Many short runs on one shard set: each [run_until] call starts its
   domains afresh, so the barrier must start every call in the state the
   first call found it in. Two shards with a 1,000 ns lookahead each run
   a local tick chain and post to each other; 3,000 calls of [run_for]
   on real domains must give the one-domain transcript. A barrier whose
   sense survives from the previous call lets one shard run a round
   ahead of its peer, which raises in [schedule_abs] or diverges. *)
let shard_many_windows domains =
  let sh = Shard.create ~n:2 () in
  Shard.set_lookahead sh ~src:0 ~dst:1 1_000;
  Shard.set_lookahead sh ~src:1 ~dst:0 1_000;
  let logs = [| ref []; ref [] |] in
  let rec tick side n () =
    let eng = Shard.engine sh side in
    let now = Engine.now eng in
    logs.(side) := (now, n) :: !(logs.(side));
    if n mod 3 = 0 then
      Shard.post sh ~src:side ~dst:(1 - side)
        ~key:(now + 1_000 + (n mod 97))
        (fun () ->
          let e = Shard.engine sh (1 - side) in
          logs.(1 - side) := (Engine.now e, -n) :: !(logs.(1 - side)));
    Engine.schedule eng (if side = 0 then 271 else 389) (tick side (n + 1))
  in
  Engine.schedule (Shard.engine sh 0) 0 (tick 0 0);
  Engine.schedule (Shard.engine sh 1) 0 (tick 1 0);
  for _ = 1 to 3_000 do
    Shard.run_for ~domains sh 3_000
  done;
  (List.rev !(logs.(0)), List.rev !(logs.(1)), Shard.rounds sh)

let test_shard_many_windows () =
  let seq = shard_many_windows false in
  let dom = shard_many_windows true in
  let pp = Alcotest.(list (pair int int)) in
  let l0, l1, r = seq and d0, d1, dr = dom in
  Alcotest.check pp "shard 0 log" l0 d0;
  Alcotest.check pp "shard 1 log" l1 d1;
  Alcotest.(check int) "rounds" r dr;
  Alcotest.(check bool) "both sides ran" true
    (List.length l0 > 10_000 && List.length l1 > 10_000)

(* Differential: a random host-partitioned cascade of events produces
   the same per-host (key, class) fire sequence on one plain engine, on
   a sharded engine stepped sequentially, and on one domain per shard.
   Child keys are [key * stride + class] with distinct classes per
   (kind, src, dst), so every event's key encodes its causal path —
   collisions can only be between duplicated seeds, which both modes
   schedule in the same order. *)
let stride = 64

let shard_lookahead = 50

let run_script mode n (a, b) seeds =
  let logs = Array.make n [] in
  let emit =
    match mode with
    | `Engine ->
      let eng = Engine.create () in
      ((fun ~src:_ ~dst:_ ~key fn -> Engine.schedule_abs eng ~key fn),
       fun () -> Engine.run eng)
    | `Shard domains ->
      let sh = Shard.create ~n () in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then Shard.set_lookahead sh ~src:s ~dst:d shard_lookahead
        done
      done;
      ((fun ~src ~dst ~key fn -> Shard.post sh ~src ~dst ~key fn),
       fun () -> Shard.run ~domains sh)
  in
  let post, run = emit in
  let rec node h cls key () =
    logs.(h) <- (key, cls) :: logs.(h);
    if key < stride * stride * stride then begin
      let row = key / stride in
      for d = 0 to n - 1 do
        if d <> h && (row + (a * d) + key) mod 3 <> 0 then begin
          let c = n + (h * n) + d in
          let k' = (key * stride) + c in
          post ~src:h ~dst:d ~key:k' (node d c k')
        end
      done;
      if (row + b) mod 2 = 0 then begin
        let k' = (key * stride) + h in
        post ~src:h ~dst:h ~key:k' (node h h k')
      end
    end
  in
  List.iter
    (fun (hs, k) ->
      let h = hs mod n in
      let key = (k * stride) + h in
      post ~src:h ~dst:h ~key (node h h key))
    seeds;
  run ();
  Array.map List.rev logs

let prop_shard_engine_differential =
  let print (n, (a, b), seeds) =
    Printf.sprintf "n=%d a=%d b=%d seeds=[%s]" n a b
      (String.concat ";"
         (List.map (fun (h, k) -> Printf.sprintf "(%d,%d)" h k) seeds))
  in
  QCheck.Test.make
    ~name:"shard: 1-domain and N-domain fire sequences identical" ~count:60
    QCheck.(
      make ~print
        Gen.(
          triple (2 -- 3) (pair (0 -- 7) (0 -- 7))
            (list_size (2 -- 6) (pair (0 -- 2) (1 -- 8)))))
    (fun (n, ab, seeds) ->
      let base = run_script `Engine n ab seeds in
      let seq = run_script (`Shard false) n ab seeds in
      let dom = run_script (`Shard true) n ab seeds in
      base = seq && base = dom)

let () =
  Alcotest.run "psd_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "sleep advances" `Quick test_sleep_advances_clock;
          Alcotest.test_case "schedule order" `Quick test_schedule_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "fiber failure" `Quick test_fiber_failure_reported;
          Alcotest.test_case "spawn allocation guard" `Quick
            test_spawn_allocation;
          Alcotest.test_case "nested spawn" `Quick test_spawn_nested;
          Alcotest.test_case "deadlock detectable" `Quick
            test_deadlock_detectable;
          QCheck_alcotest.to_alcotest prop_sleep_sums;
          QCheck_alcotest.to_alcotest prop_dispatch_order;
          QCheck_alcotest.to_alcotest prop_fiber_vs_continuation_charges;
          Alcotest.test_case "task stage failure" `Quick
            test_task_stage_failure;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "same-key fifo" `Quick test_wheel_same_key_fifo;
          Alcotest.test_case "cascade boundaries" `Quick
            test_wheel_cascade_boundaries;
          Alcotest.test_case "cancel min" `Quick test_wheel_cancel_min;
          Alcotest.test_case "min lookups allocate nothing" `Quick
            test_wheel_min_no_alloc;
          Alcotest.test_case "create allocates no sentinels" `Quick
            test_wheel_create_lazy_sentinels;
          Alcotest.test_case "reinsert after cancel" `Quick
            test_wheel_reinsert_after_cancel;
          QCheck_alcotest.to_alcotest prop_wheel_heap_differential;
          Alcotest.test_case "timer/heap same-instant fifo" `Quick
            test_timer_heap_same_instant_fifo;
          Alcotest.test_case "timer cancel + re-arm" `Quick
            test_timer_cancel_and_rearm;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal wakes one" `Quick
            test_cond_signal_wakes_one;
          Alcotest.test_case "broadcast wakes all" `Quick
            test_cond_broadcast_wakes_all;
          Alcotest.test_case "timeout" `Quick test_cond_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_cond_signal_beats_timeout;
          Alcotest.test_case "until" `Quick test_cond_until;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes" `Quick test_cpu_serializes;
          Alcotest.test_case "priority" `Quick test_cpu_priority;
          Alcotest.test_case "zero cost" `Quick test_cpu_zero_cost_no_acquire;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocks" `Quick test_mailbox_blocks_until_send;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "serve failure" `Quick test_serve_failure;
          QCheck_alcotest.to_alcotest prop_serve_matches_recv_loop;
        ] );
      ("determinism", [ Alcotest.test_case "replay" `Quick test_determinism ]);
      ( "shard",
        [
          Alcotest.test_case "post delivery order" `Quick
            test_shard_post_delivery;
          Alcotest.test_case "same-key fifo" `Quick test_shard_same_key_fifo;
          Alcotest.test_case "post validation" `Quick
            test_shard_post_validation;
          Alcotest.test_case "ping-pong deterministic" `Quick
            test_shard_pingpong_deterministic;
          Alcotest.test_case "failure aborts all shards" `Quick
            test_shard_failure_aborts;
          Alcotest.test_case "fiber failure named" `Quick
            test_shard_failure_named;
          Alcotest.test_case "run_for advances clocks" `Quick
            test_shard_run_for_advances;
          Alcotest.test_case "many windows on domains" `Quick
            test_shard_many_windows;
          QCheck_alcotest.to_alcotest prop_shard_engine_differential;
        ] );
    ]
