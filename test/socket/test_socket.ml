open Psd_socket
open Psd_sim

let ( => ) name b = Alcotest.(check bool) name true b

(* --- Sockbuf ------------------------------------------------------------ *)

let test_sockbuf_fifo_bytes () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "hello ");
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "world");
  Alcotest.(check int) "cc" 11 (Sockbuf.cc sb);
  (match Sockbuf.try_read sb ~max:8 with
  | Ok m -> Alcotest.(check string) "first 8" "hello wo" (Psd_mbuf.Mbuf.to_string m)
  | Error _ -> Alcotest.fail "read failed");
  (match Sockbuf.try_read sb ~max:100 with
  | Ok m -> Alcotest.(check string) "rest" "rld" (Psd_mbuf.Mbuf.to_string m)
  | Error _ -> Alcotest.fail "read failed");
  (match Sockbuf.try_read sb ~max:1 with
  | Error `Empty -> ()
  | _ -> Alcotest.fail "expected empty")

let test_sockbuf_blocking_read () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  let got = ref "" in
  Engine.spawn eng (fun () ->
      match Sockbuf.read sb ~max:100 with
      | Ok m -> got := Psd_mbuf.Mbuf.to_string m
      | Error _ -> ());
  Engine.schedule eng (Time.ms 5) (fun () ->
      Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "late"));
  Engine.run eng;
  Alcotest.(check string) "woke with data" "late" !got

let test_sockbuf_eof_after_data () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "tail");
  Sockbuf.set_eof sb;
  "readable with eof" => Sockbuf.readable sb;
  (match Sockbuf.try_read sb ~max:100 with
  | Ok m -> Alcotest.(check string) "data first" "tail" (Psd_mbuf.Mbuf.to_string m)
  | Error _ -> Alcotest.fail "data lost at eof");
  match Sockbuf.try_read sb ~max:100 with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "expected eof"

let test_sockbuf_error_propagates () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  let result = ref (Ok ()) in
  Engine.spawn eng (fun () ->
      match Sockbuf.read sb ~max:10 with
      | Error (`Error e) -> result := Error e
      | _ -> ());
  Engine.schedule eng 10 (fun () -> Sockbuf.set_error sb "reset");
  Engine.run eng;
  Alcotest.(check bool) "error delivered" true (!result = Error "reset")

let test_sockbuf_change_hooks_and_waiters () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  let changes = ref 0 in
  Sockbuf.on_change sb (fun () -> incr changes);
  "no waiters initially" => not (Sockbuf.has_waiters sb);
  Engine.spawn eng (fun () -> ignore (Sockbuf.read sb ~max:1));
  Engine.run_for eng 1;
  "reader registered" => Sockbuf.has_waiters sb;
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "x");
  Engine.run eng;
  "hooks fired" => (!changes >= 1);
  "reader gone" => not (Sockbuf.has_waiters sb)

let test_sockbuf_space () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng ~hiwat:10 () in
  Alcotest.(check int) "initial space" 10 (Sockbuf.space sb);
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "123456");
  Alcotest.(check int) "space shrinks" 4 (Sockbuf.space sb);
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "789012");
  Alcotest.(check int) "floored at zero" 0 (Sockbuf.space sb)

(* --- NEWAPI loans: bytes leave the queue but stay charged ---------------- *)

let test_sockbuf_loan_accounting () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng ~hiwat:10 () in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "12345678");
  Alcotest.(check int) "space before loan" 2 (Sockbuf.space sb);
  (match Sockbuf.try_read_loan sb ~max:5 with
  | Ok m ->
    Alcotest.(check string) "loan bytes" "12345" (Psd_mbuf.Mbuf.to_string m)
  | Error _ -> Alcotest.fail "loan failed");
  Alcotest.(check int) "cc drops at loan" 3 (Sockbuf.cc sb);
  Alcotest.(check int) "loaned" 5 (Sockbuf.loaned sb);
  Alcotest.(check int) "space unchanged while loaned" 2 (Sockbuf.space sb);
  Sockbuf.loan_return sb 2;
  Alcotest.(check int) "partial return reopens space" 4 (Sockbuf.space sb);
  Sockbuf.loan_return sb 3;
  Alcotest.(check int) "full return" 7 (Sockbuf.space sb);
  Alcotest.(check int) "no loans out" 0 (Sockbuf.loaned sb)

let test_sockbuf_loan_return_validation () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "abcd");
  (match Sockbuf.try_read_loan sb ~max:4 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "loan failed");
  Alcotest.check_raises "over-return"
    (Invalid_argument "Sockbuf.loan_return: not loaned") (fun () ->
      Sockbuf.loan_return sb 5);
  Alcotest.check_raises "negative"
    (Invalid_argument "Sockbuf.loan_return: negative length") (fun () ->
      Sockbuf.loan_return sb (-1));
  Sockbuf.loan_return sb 4;
  Alcotest.(check int) "settled" 0 (Sockbuf.loaned sb)

let test_sockbuf_loan_return_fires_hooks () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_string "window");
  (match Sockbuf.try_read_loan sb ~max:6 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "loan failed");
  let changes = ref 0 in
  Sockbuf.on_change sb (fun () -> incr changes);
  Sockbuf.loan_return sb 0;
  Alcotest.(check int) "zero-length return is silent" 0 !changes;
  (* the TCP window-update path hangs off these hooks: a real return
     must announce the reclaimed space *)
  Sockbuf.loan_return sb 6;
  "return announces space" => (!changes >= 1)

let test_sockbuf_loan_never_flattens () =
  let eng = Engine.create () in
  let sb = Sockbuf.create eng () in
  let page = Bytes.of_string "shared-page-contents" in
  Sockbuf.append sb (Psd_mbuf.Mbuf.of_bytes_view page ~off:0 ~len:20);
  match Sockbuf.try_read_loan sb ~max:20 with
  | Ok m ->
    let aliases =
      Psd_mbuf.Mbuf.fold_ranges m ~init:false
        ~f:(fun acc buf ~off:_ ~len:_ -> acc || buf == page)
    in
    "loan aliases the deposited page" => aliases;
    Sockbuf.loan_return sb 20
  | Error _ -> Alcotest.fail "loan failed"

let prop_sockbuf_loans_preserve_stream =
  QCheck.Test.make
    ~name:"sockbuf: loaned reads concatenate to appends, charges settle"
    ~count:100
    QCheck.(list (string_of_size Gen.(0 -- 200)))
    (fun chunks ->
      let eng = Engine.create () in
      let hiwat = 24 * 1024 in
      let sb = Sockbuf.create eng ~hiwat () in
      List.iter (fun c -> Sockbuf.append sb (Psd_mbuf.Mbuf.of_string c)) chunks;
      Sockbuf.set_eof sb;
      let total = List.fold_left (fun a c -> a + String.length c) 0 chunks in
      let buf = Buffer.create 64 in
      (* hold every loan until the queue is dry, then return them all *)
      let rec drain loans =
        match Sockbuf.try_read_loan sb ~max:41 with
        | Ok m ->
          Buffer.add_string buf (Psd_mbuf.Mbuf.to_string m);
          drain (Psd_mbuf.Mbuf.length m :: loans)
        | Error `Eof | Error `Empty | Error (`Error _) -> loans
      in
      let loans = drain [] in
      let drained_ok =
        Sockbuf.loaned sb = total
        && Buffer.contents buf = String.concat "" chunks
      in
      List.iter (fun n -> Sockbuf.loan_return sb n) loans;
      drained_ok && Sockbuf.loaned sb = 0
      && Sockbuf.space sb = hiwat)

let prop_sockbuf_preserves_stream =
  QCheck.Test.make ~name:"sockbuf: reads concatenate to appends" ~count:100
    QCheck.(list (string_of_size Gen.(0 -- 200)))
    (fun chunks ->
      let eng = Engine.create () in
      let sb = Sockbuf.create eng () in
      List.iter (fun c -> Sockbuf.append sb (Psd_mbuf.Mbuf.of_string c)) chunks;
      Sockbuf.set_eof sb;
      let buf = Buffer.create 64 in
      let rec drain () =
        match Sockbuf.try_read sb ~max:37 with
        | Ok m ->
          Buffer.add_string buf (Psd_mbuf.Mbuf.to_string m);
          drain ()
        | Error `Eof | Error `Empty -> ()
        | Error (`Error _) -> ()
      in
      drain ();
      Buffer.contents buf = String.concat "" chunks)

(* --- Dgramq ------------------------------------------------------------- *)

let test_dgramq_boundaries () =
  let eng = Engine.create () in
  let q = Dgramq.create eng () in
  ignore (Dgramq.push q ~src:(1, 10) "first");
  ignore (Dgramq.push q ~src:(2, 20) "second");
  (match Dgramq.try_recv q with
  | Some ((1, 10), "first") -> ()
  | _ -> Alcotest.fail "wrong first datagram");
  (match Dgramq.try_recv q with
  | Some ((2, 20), "second") -> ()
  | _ -> Alcotest.fail "wrong second datagram");
  "drained" => (Dgramq.try_recv q = None)

let test_dgramq_drops_when_full () =
  let eng = Engine.create () in
  let q = Dgramq.create eng ~max_queued:2 () in
  "1" => Dgramq.push q ~src:(0, 0) "a";
  "2" => Dgramq.push q ~src:(0, 0) "b";
  "3 dropped" => not (Dgramq.push q ~src:(0, 0) "c");
  Alcotest.(check int) "dropped count" 1 (Dgramq.dropped q);
  Alcotest.(check int) "length" 2 (Dgramq.length q)

let test_dgramq_blocking () =
  let eng = Engine.create () in
  let q = Dgramq.create eng () in
  let got = ref "" in
  Engine.spawn eng (fun () ->
      let _, payload = Dgramq.recv q in
      got := payload);
  Engine.schedule eng (Time.ms 3) (fun () ->
      ignore (Dgramq.push q ~src:(9, 9) "wake"));
  Engine.run eng;
  Alcotest.(check string) "blocking recv" "wake" !got

let () =
  Alcotest.run "psd_socket"
    [
      ( "sockbuf",
        [
          Alcotest.test_case "fifo bytes" `Quick test_sockbuf_fifo_bytes;
          Alcotest.test_case "blocking read" `Quick test_sockbuf_blocking_read;
          Alcotest.test_case "eof after data" `Quick test_sockbuf_eof_after_data;
          Alcotest.test_case "error" `Quick test_sockbuf_error_propagates;
          Alcotest.test_case "hooks+waiters" `Quick
            test_sockbuf_change_hooks_and_waiters;
          Alcotest.test_case "space" `Quick test_sockbuf_space;
          Alcotest.test_case "loan accounting" `Quick
            test_sockbuf_loan_accounting;
          Alcotest.test_case "loan return validation" `Quick
            test_sockbuf_loan_return_validation;
          Alcotest.test_case "loan return fires hooks" `Quick
            test_sockbuf_loan_return_fires_hooks;
          Alcotest.test_case "loan never flattens" `Quick
            test_sockbuf_loan_never_flattens;
          QCheck_alcotest.to_alcotest prop_sockbuf_preserves_stream;
          QCheck_alcotest.to_alcotest prop_sockbuf_loans_preserve_stream;
        ] );
      ( "dgramq",
        [
          Alcotest.test_case "boundaries" `Quick test_dgramq_boundaries;
          Alcotest.test_case "overflow" `Quick test_dgramq_drops_when_full;
          Alcotest.test_case "blocking" `Quick test_dgramq_blocking;
        ] );
    ]
