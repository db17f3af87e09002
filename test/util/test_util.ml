open Psd_util

let bytes_of_ints ints =
  let b = Bytes.create (List.length ints) in
  List.iteri (fun i v -> Bytes.set b i (Char.chr v)) ints;
  b

(* --- Checksum ------------------------------------------------------- *)

let test_checksum_rfc1071 () =
  (* Worked example from RFC 1071 section 3. *)
  let b = bytes_of_ints [ 0x00; 0x01; 0xf2; 0x03; 0xf4; 0xf5; 0xf6; 0xf7 ] in
  Alcotest.(check int)
    "rfc1071 vector" 0x220d
    (Checksum.of_bytes b ~off:0 ~len:8)

let test_checksum_odd_length () =
  let b = bytes_of_ints [ 0x01; 0x02; 0x03 ] in
  (* 0x0102 + 0x0300 = 0x0402 -> complement 0xfbfd *)
  Alcotest.(check int) "odd" 0xfbfd (Checksum.of_bytes b ~off:0 ~len:3)

let test_checksum_zero () =
  let b = Bytes.make 4 '\x00' in
  Alcotest.(check int) "all-zero" 0xffff (Checksum.of_bytes b ~off:0 ~len:4)

let test_checksum_incremental () =
  let b = bytes_of_ints [ 0xde; 0xad; 0xbe; 0xef; 0x12; 0x34 ] in
  let whole = Checksum.of_bytes b ~off:0 ~len:6 in
  let acc = Checksum.add_bytes Checksum.empty b ~off:0 ~len:2 in
  let acc = Checksum.add_bytes acc b ~off:2 ~len:4 in
  Alcotest.(check int) "split = whole" whole (Checksum.finish acc);
  let acc = Checksum.add_u16 Checksum.empty 0xdead in
  let acc = Checksum.add_u16 acc 0xbeef in
  let acc = Checksum.add_u16 acc 0x1234 in
  Alcotest.(check int) "u16 = bytes" whole (Checksum.finish acc)

let test_checksum_verify_roundtrip () =
  (* Store complement at an offset; the whole range must then verify. *)
  let b = bytes_of_ints [ 0x45; 0x00; 0x00; 0x1c; 0x00; 0x00; 0x00; 0x00 ] in
  let c = Checksum.of_bytes b ~off:0 ~len:8 in
  Codec.set_u16 b 4 c;
  Alcotest.(check bool) "validates" true (Checksum.valid b ~off:0 ~len:8)

let test_checksum_bounds () =
  let b = Bytes.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Checksum.add_bytes")
    (fun () -> ignore (Checksum.of_bytes b ~off:2 ~len:4))

let prop_checksum_valid_after_store =
  QCheck.Test.make ~name:"checksum: storing complement validates" ~count:200
    QCheck.(list_of_size Gen.(2 -- 64) (int_bound 255))
    (fun ints ->
      let ints = 0 :: 0 :: ints in
      let b = bytes_of_ints ints in
      let len = Bytes.length b in
      let c = Checksum.of_bytes b ~off:0 ~len in
      Codec.set_u16 b 0 c;
      Checksum.valid b ~off:0 ~len)

(* --- differential: word-at-a-time checksum vs byte-at-a-time --------- *)

(* Independent byte-at-a-time reference (the pre-fast-path algorithm,
   re-derived here rather than shared with the implementation). *)
let ref_add_bytes acc b ~off ~len =
  let acc = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    acc :=
      !acc
      + (Char.code (Bytes.get b !i) lsl 8)
      + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.get b !i) lsl 8);
  !acc

let ref_finish acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let gen_checksum_case =
  QCheck.Gen.(
    (* sizes straddling the word-at-a-time threshold, odd offsets and odd
       lengths included *)
    int_bound 4000 >>= fun size ->
    map Bytes.unsafe_of_string (string_size ~gen:char (return size))
    >>= fun b ->
    int_bound size >>= fun off ->
    int_bound (size - off) >>= fun len ->
    int_bound 0xffff >>= fun seed -> return (b, off, len, seed))

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum: word-at-a-time equals reference"
    ~count:2000
    (QCheck.make gen_checksum_case)
    (fun (b, off, len, seed) ->
      let acc0 = Checksum.add_u16 Checksum.empty seed in
      Checksum.finish (Checksum.add_bytes acc0 b ~off ~len)
      = ref_finish (ref_add_bytes seed b ~off ~len))

(* packet-sized and larger ranges, up to 64 KB, starting at an odd
   offset and running an odd length: every loop of the fast path (32-byte
   blocks, 8-byte tail words, 16-bit tail, last odd byte) with the
   64-bit loads off any alignment *)
let prop_checksum_large_odd_matches_reference =
  QCheck.Test.make
    ~name:"checksum: odd offsets and lengths up to 64 KB equal reference"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_bound 32767 >>= fun half ->
         let len = (2 * half) + 1 in
         int_bound 7 >>= fun lead ->
         let off = (2 * lead) + 1 in
         map Bytes.unsafe_of_string
           (string_size ~gen:char (return (off + len)))
         >>= fun b -> return (b, off, len)))
    (fun (b, off, len) ->
      Checksum.of_bytes b ~off ~len
      = ref_finish (ref_add_bytes 0 b ~off ~len))

let prop_checksum_chained_matches_reference =
  (* split at a random even boundary: accumulator chaining across calls *)
  QCheck.Test.make ~name:"checksum: chained add_bytes equals reference"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(pair gen_checksum_case (int_bound 2000)))
    (fun ((b, off, len, seed), cut) ->
      let cut = 2 * (min cut len / 2) in
      let acc0 = Checksum.add_u16 Checksum.empty seed in
      let acc = Checksum.add_bytes acc0 b ~off ~len:cut in
      let acc = Checksum.add_bytes acc b ~off:(off + cut) ~len:(len - cut) in
      Checksum.finish acc = ref_finish (ref_add_bytes seed b ~off ~len))

let prop_checksum_update_agrees_with_recompute =
  QCheck.Test.make
    ~name:"checksum: rfc1624 update equals recomputation" ~count:1000
    QCheck.(
      triple
        (list_of_size Gen.(4 -- 20) (int_bound 255))
        small_nat (int_bound 0xffff))
    (fun (ints, field_idx, new_val) ->
      (* an even-length buffer with a guaranteed nonzero byte, a stored
         checksum at word 0 and a rewritten 16-bit field elsewhere *)
      let ints = 0 :: 0 :: 0x45 :: 0x17 :: ints in
      let ints = if List.length ints mod 2 = 0 then ints else ints @ [ 0 ] in
      let b = bytes_of_ints ints in
      let len = Bytes.length b in
      let c = Checksum.of_bytes b ~off:0 ~len in
      Codec.set_u16 b 0 c;
      let words = len / 2 in
      let field = 2 * (1 + (field_idx mod (words - 1))) in
      let old = Codec.get_u16 b field in
      Codec.set_u16 b field new_val;
      let updated = Checksum.update ~cksum:c ~old ~new_:new_val in
      (* recompute over the buffer with the checksum field zeroed *)
      Codec.set_u16 b 0 0;
      let recomputed = Checksum.of_bytes b ~off:0 ~len in
      Codec.set_u16 b 0 updated;
      updated = recomputed && Checksum.valid b ~off:0 ~len)

(* --- Codec ---------------------------------------------------------- *)

let test_codec_roundtrip () =
  let b = Bytes.create 16 in
  Codec.set_u8 b 0 0xab;
  Codec.set_u16 b 1 0xcdef;
  Codec.set_u32 b 3 0xdeadbeefl;
  Codec.set_u32i b 7 0x01020304;
  Alcotest.(check int) "u8" 0xab (Codec.get_u8 b 0);
  Alcotest.(check int) "u16" 0xcdef (Codec.get_u16 b 1);
  Alcotest.(check int32) "u32" 0xdeadbeefl (Codec.get_u32 b 3);
  Alcotest.(check int) "u32i" 0x01020304 (Codec.get_u32i b 7)

let test_codec_u32i_high_bit () =
  let b = Bytes.create 4 in
  Codec.set_u32i b 0 0xffffffff;
  Alcotest.(check int) "high bit" 0xffffffff (Codec.get_u32i b 0)

let test_codec_truncation () =
  let b = Bytes.create 8 in
  Codec.set_u16 b 0 0x12345;
  Alcotest.(check int) "u16 trunc" 0x2345 (Codec.get_u16 b 0);
  Codec.set_u8 b 2 0x1ff;
  Alcotest.(check int) "u8 trunc" 0xff (Codec.get_u8 b 2)

let test_hexdump () =
  let b = Bytes.of_string "Hello, world! \x01\x02extra" in
  let s = Codec.hexdump b ~off:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "contains ascii" true
    (String.length s > 0
    && String.length (String.concat "" (String.split_on_char 'H' s)) < String.length s)

(* --- Heap ----------------------------------------------------------- *)

(* The engine's discipline: every push draws its tie-break seq from one
   monotone counter the caller owns. *)
let push_next h seq ~key v =
  Heap.push_seq h ~key ~seq:!seq v;
  incr seq

(* the minimum entry's key and value, or [None] when empty *)
let pop h =
  if Heap.is_empty h then None
  else
    let key = Heap.min_key h in
    Some (key, Heap.pop_min h)

let test_heap_order () =
  let h = Heap.create ~filler:0 and seq = ref 0 in
  List.iter (fun k -> push_next h seq ~key:k k) [ 5; 3; 8; 1; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 8; 5; 3; 2; 1 ] !out

let test_heap_fifo_ties () =
  let h = Heap.create ~filler:"" and seq = ref 0 in
  List.iter (fun v -> push_next h seq ~key:7 v) [ "a"; "b"; "c" ];
  let next () = match pop h with Some (_, v) -> v | None -> "?" in
  let first = next () in
  let second = next () in
  let third = next () in
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_empty () =
  let h = Heap.create ~filler:0 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check int) "min_key" max_int (Heap.min_key h);
  Alcotest.(check int) "min_seq" max_int (Heap.min_seq h);
  Alcotest.check_raises "pop_min" (Invalid_argument "Heap.pop_min: empty")
    (fun () -> ignore (Heap.pop_min h))

(* A popped value must not stay reachable through the heap's arrays:
   not from the slot it left, not from the slot the last entry moved
   out of, and not from the fresh slots a grow fills. *)
let[@inline never] push_watched h w i =
  let v = ref i in
  Weak.set w i (Some v);
  Heap.push_seq h ~key:i ~seq:i v

let test_heap_releases_popped () =
  let n = 20 in
  let h = Heap.create ~filler:(ref (-1)) in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    push_watched h w i
  done;
  for _ = 1 to n do
    ignore (Heap.pop_min h)
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false
      (Weak.check w i)
  done;
  (* the heap itself stays reachable across the collection *)
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap: pop order is sorted" ~count:200
    QCheck.(list int)
    (fun keys ->
      let h = Heap.create ~filler:() and seq = ref 0 in
      List.iter (fun k -> push_next h seq ~key:k ()) keys;
      let rec drain acc =
        match pop h with
        | Some (k, ()) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* Differential against a sorted-list reference, with keys drawn from a
   handful of values so most pushes tie with the push before and runs
   form, grow, drain and restart. The reference pops the (key, seq)
   minimum; [push_seq] gaps mimic the engine's counter, which it shares
   with two other queues. *)
type heap_op = Push of int | Push_gap of int * int | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Push k) (int_bound 3));
        (1, map (fun k -> Push k) (int_bound 1000));
        (2, map2 (fun k g -> Push_gap (k, g)) (int_bound 3) (int_range 1 5));
        (5, return Pop);
      ])

let print_heap_op = function
  | Push k -> Printf.sprintf "Push %d" k
  | Push_gap (k, g) -> Printf.sprintf "Push_gap (%d, %d)" k g
  | Pop -> "Pop"

let heap_matches_reference ops =
  let h = Heap.create ~filler:(-1) in
  let seq = ref 0 in
  (* reference: (key, seq) pairs, value = seq *)
  let model = ref [] in
  let agree () =
    let sorted = List.sort compare !model in
    Heap.size h = List.length sorted
    && Heap.is_empty h = (sorted = [])
    &&
    match sorted with
    | [] -> Heap.min_key h = max_int && Heap.min_seq h = max_int
    | (k, s) :: _ -> Heap.min_key h = k && Heap.min_seq h = s
  in
  let step op =
    (match op with
    | Push k | Push_gap (k, _) ->
      (match op with Push_gap (_, g) -> seq := !seq + g | _ -> ());
      Heap.push_seq h ~key:k ~seq:!seq !seq;
      model := (k, !seq) :: !model;
      incr seq
    | Pop -> (
      match List.sort compare !model with
      | [] -> if pop h <> None then QCheck.Test.fail_report "pop of empty"
      | ((k, s) as m) :: _ ->
        model := List.filter (fun e -> e <> m) !model;
        if pop h <> Some (k, s) then
          QCheck.Test.fail_reportf "expected (%d, %d)" k s));
    agree ()
  in
  List.for_all step ops
  &&
  (* drain what is left *)
  let rec drain () =
    match List.sort compare !model with
    | [] -> pop h = None
    | ((k, s) as m) :: _ ->
      model := List.filter (fun e -> e <> m) !model;
      pop h = Some (k, s) && agree () && drain ()
  in
  drain ()

let prop_heap_runs_match_reference =
  QCheck.Test.make ~name:"heap: same-key runs pop like a sorted list"
    ~count:500
    QCheck.(list_of_size Gen.(0 -- 300) (make ~print:print_heap_op heap_op_gen))
    heap_matches_reference

(* a run popped empty, then its key pushed again, starts a fresh run *)
let test_heap_run_restart () =
  Alcotest.(check bool) "reference" true
    (heap_matches_reference
       [ Push 5; Push 5; Pop; Pop; Push 5; Push 5; Push 5; Push 2; Pop; Pop;
         Push 2; Push 5; Pop; Pop; Pop; Pop ])

(* Slots freed by popped runs are reused, and a run that outgrows the
   slab (and a heap that outgrows its arrays) mid-run keeps its order. *)
let test_heap_growth_mid_run () =
  let ops =
    List.init 15 (fun i -> Push (100 + i))
    @ List.init 40 (fun _ -> Push 7)
    @ List.init 20 (fun i -> Push (200 - i))
    @ List.init 30 (fun _ -> Push 7)
    @ List.init 50 (fun _ -> Pop)
    @ List.init 60 (fun i -> Push (i mod 2))
    @ List.init 60 (fun _ -> Push 1)
  in
  Alcotest.(check bool) "reference" true (heap_matches_reference ops)

(* The engine's hot loop: once the arrays have grown, pushes that join
   or open runs and pops that drain them allocate nothing. *)
let test_heap_steady_state_no_alloc () =
  let h = Heap.create ~filler:(-1) and seq = ref 0 in
  let churn rounds =
    for r = 1 to rounds do
      for i = 0 to 63 do
        push_next h seq ~key:(r + (i / 8)) i
      done;
      for _ = 0 to 63 do
        ignore (Heap.pop_min h)
      done
    done
  in
  churn 4;
  let before = Gc.minor_words () in
  churn 1000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  Alcotest.(check int) "minor words" 0 (int_of_float words)

let[@inline never] push_watched_key h w i ~key =
  let v = ref i in
  Weak.set w i (Some v);
  Heap.push_seq h ~key ~seq:i v

(* the slab honours the filler rule too: a popped run member is not
   kept reachable *)
let test_heap_run_releases_popped () =
  let n = 20 in
  let h = Heap.create ~filler:(ref (-1)) in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    push_watched_key h w i ~key:(i / 5)
  done;
  for _ = 1 to n do
    ignore (Heap.pop_min h)
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false
      (Weak.check w i)
  done;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

(* --- Stats ---------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.max s);
  Alcotest.(check (float 1e-9)) "total" 15. (Stats.total s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "p50" 3. (Stats.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile s 100.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s))

(* --- Ring ----------------------------------------------------------- *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check bool) "push1" true (Ring.push r 1);
  Alcotest.(check bool) "push2" true (Ring.push r 2);
  Alcotest.(check bool) "push3" true (Ring.push r 3);
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check bool) "push4 fails" false (Ring.push r 4);
  Alcotest.(check (option int)) "pop1" (Some 1) (Ring.pop r);
  Alcotest.(check bool) "push5" true (Ring.push r 5);
  Alcotest.(check (option int)) "pop2" (Some 2) (Ring.pop r);
  Alcotest.(check (option int)) "pop3" (Some 3) (Ring.pop r);
  Alcotest.(check (option int)) "pop5" (Some 5) (Ring.pop r);
  Alcotest.(check (option int)) "empty" None (Ring.pop r)

let test_ring_wraparound_iter () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 4 do
    ignore (Ring.push r i)
  done;
  ignore (Ring.pop r);
  ignore (Ring.pop r);
  ignore (Ring.push r 5);
  let seen = ref [] in
  Ring.iter (fun x -> seen := x :: !seen) r;
  Alcotest.(check (list int)) "iter order" [ 3; 4; 5 ] (List.rev !seen)

let prop_ring_behaves_like_queue =
  QCheck.Test.make ~name:"ring: equivalent to bounded queue" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let cap = 5 in
      let r = Ring.create ~capacity:cap in
      let q = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            let ok = Ring.push r v in
            let qok = Queue.length q < cap in
            if qok then Queue.push v q;
            ok = qok
          end
          else
            let a = Ring.pop r in
            let b = Queue.take_opt q in
            a = b)
        ops)

(* --- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_differs () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different" true (Rng.next a <> Rng.next b)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of range"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range"
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:9 in
  let r2 = Rng.split r in
  let x = Rng.next r and y = Rng.next r2 in
  Alcotest.(check bool) "streams differ" true (x <> y)

(* Copy accounting must survive concurrent charges: every count from
   every domain lands in the totals (atomic counters, and sums are
   interleaving-independent). *)
let test_copies_multi_domain () =
  Psd_util.Copies.reset ();
  let per_domain = 10_000 and ndom = 4 in
  let doms =
    Array.init ndom (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Psd_util.Copies.count Psd_util.Copies.Wire 64;
              Psd_util.Copies.count Psd_util.Copies.Rx_ring ~n:2 128
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "wire copies" (ndom * per_domain)
    (Psd_util.Copies.copies Psd_util.Copies.Wire);
  Alcotest.(check int) "wire bytes"
    (ndom * per_domain * 64)
    (Psd_util.Copies.bytes Psd_util.Copies.Wire);
  Alcotest.(check int) "ring copies"
    (ndom * per_domain * 2)
    (Psd_util.Copies.copies Psd_util.Copies.Rx_ring);
  Alcotest.(check int) "ring bytes"
    (ndom * per_domain * 128)
    (Psd_util.Copies.bytes Psd_util.Copies.Rx_ring);
  Psd_util.Copies.reset ();
  Alcotest.(check int) "reset" 0
    (Psd_util.Copies.copies Psd_util.Copies.Wire)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "psd_util"
    [
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 vector" `Quick test_checksum_rfc1071;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "all zero" `Quick test_checksum_zero;
          Alcotest.test_case "incremental" `Quick test_checksum_incremental;
          Alcotest.test_case "verify roundtrip" `Quick
            test_checksum_verify_roundtrip;
          Alcotest.test_case "bounds" `Quick test_checksum_bounds;
        ]
        @ qsuite
            [
              prop_checksum_valid_after_store;
              prop_checksum_matches_reference;
              prop_checksum_chained_matches_reference;
              prop_checksum_update_agrees_with_recompute;
              prop_checksum_large_odd_matches_reference;
            ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "u32i high bit" `Quick test_codec_u32i_high_bit;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "hexdump" `Quick test_hexdump;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "releases popped values" `Quick
            test_heap_releases_popped;
          Alcotest.test_case "run restart" `Quick test_heap_run_restart;
          Alcotest.test_case "growth mid-run" `Quick test_heap_growth_mid_run;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_heap_steady_state_no_alloc;
          Alcotest.test_case "run releases popped values" `Quick
            test_heap_run_releases_popped;
        ]
        @ qsuite [ prop_heap_sorts; prop_heap_runs_match_reference ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound iter" `Quick
            test_ring_wraparound_iter;
        ]
        @ qsuite [ prop_ring_behaves_like_queue ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed differs" `Quick test_rng_seed_differs;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "copies",
        [
          Alcotest.test_case "multi-domain counts survive" `Quick
            test_copies_multi_domain;
        ] );
    ]
