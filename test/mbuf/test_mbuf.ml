open Psd_mbuf

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_of_string_roundtrip () =
  let m = Mbuf.of_string "hello world" in
  check_int "length" 11 (Mbuf.length m);
  check_str "payload" "hello world" (Mbuf.to_string m)

let test_empty () =
  let m = Mbuf.empty () in
  check_int "length" 0 (Mbuf.length m);
  Alcotest.(check bool) "is_empty" true (Mbuf.is_empty m);
  check_str "flat" "" (Mbuf.to_string m)

let test_chunking () =
  let payload = String.make (Mbuf.cluster_size * 2 + 100) 'x' in
  let m = Mbuf.of_string payload in
  check_int "length" (String.length payload) (Mbuf.length m);
  check_int "segments" 3 (Mbuf.seg_count m);
  check_str "roundtrip" payload (Mbuf.to_string m)

let test_prepend_in_headroom () =
  let m = Mbuf.of_string "payload" in
  let before = Mbuf.seg_count m in
  let buf, off = Mbuf.prepend m 4 in
  Bytes.blit_string "HDR:" 0 buf off 4;
  check_int "no new segment" before (Mbuf.seg_count m);
  check_str "prefixed" "HDR:payload" (Mbuf.to_string m)

let test_prepend_overflow_headroom () =
  let m = Mbuf.of_bytes ~headroom:2 (Bytes.of_string "xy") ~off:0 ~len:2 in
  let buf, off = Mbuf.prepend m 10 in
  Bytes.blit_string "0123456789" 0 buf off 10;
  check_str "new seg" "0123456789xy" (Mbuf.to_string m);
  check_int "segments" 2 (Mbuf.seg_count m)

let test_prepend_empty_payload () =
  (* A pure-ACK TCP segment: headers prepended onto an empty chain. *)
  let m = Mbuf.of_string "" in
  let buf, off = Mbuf.prepend m 20 in
  Bytes.fill buf off 20 'h';
  check_int "len" 20 (Mbuf.length m)

let test_trim_front () =
  let m = Mbuf.of_string "ETHIPhello" in
  Mbuf.trim_front m 5;
  check_str "stripped" "hello" (Mbuf.to_string m)

let test_trim_front_across_segments () =
  let payload =
    String.make Mbuf.cluster_size 'a' ^ String.make 10 'b'
  in
  let m = Mbuf.of_string payload in
  Mbuf.trim_front m (Mbuf.cluster_size + 4);
  check_str "tail" "bbbbbb" (Mbuf.to_string m)

let test_trim_back () =
  let m = Mbuf.of_string "hello world" in
  Mbuf.trim_back m 6;
  check_str "front kept" "hello" (Mbuf.to_string m)

let test_trim_back_across_segments () =
  let payload = String.make Mbuf.cluster_size 'a' ^ "tail" in
  let m = Mbuf.of_string payload in
  Mbuf.trim_back m 8;
  check_int "len" (Mbuf.cluster_size - 4) (Mbuf.length m)

let test_trim_bounds () =
  let m = Mbuf.of_string "abc" in
  Alcotest.check_raises "too much" (Invalid_argument "Mbuf.trim_front")
    (fun () -> Mbuf.trim_front m 4)

let test_concat () =
  let a = Mbuf.of_string "foo" and b = Mbuf.of_string "bar" in
  Mbuf.concat a b;
  check_str "joined" "foobar" (Mbuf.to_string a);
  Alcotest.(check bool) "b emptied" true (Mbuf.is_empty b)

let test_copy_range () =
  let m = Mbuf.of_string "0123456789" in
  let c = Mbuf.copy_range m ~off:3 ~len:4 in
  check_str "copy" "3456" (Mbuf.to_string c);
  check_str "original intact" "0123456789" (Mbuf.to_string m)

let test_copy_range_across_segments () =
  let payload = String.init (Mbuf.cluster_size + 50) (fun i -> Char.chr (i mod 26 + 65)) in
  let m = Mbuf.of_string payload in
  let off = Mbuf.cluster_size - 10 and len = 30 in
  let c = Mbuf.copy_range m ~off ~len in
  check_str "cross-seg copy" (String.sub payload off len) (Mbuf.to_string c)

let test_copy_range_bounds () =
  let m = Mbuf.of_string "abc" in
  Alcotest.check_raises "oob" (Invalid_argument "Mbuf.copy_range") (fun () ->
      ignore (Mbuf.copy_range m ~off:1 ~len:3))

let test_split () =
  let m = Mbuf.of_string "headtail!" in
  let head = Mbuf.split m 4 in
  check_str "head" "head" (Mbuf.to_string head);
  check_str "tail" "tail!" (Mbuf.to_string m)

let test_fold_ranges_checksum_consistency () =
  let payload = String.init 5000 (fun i -> Char.chr (i * 7 mod 256)) in
  let m = Mbuf.of_string payload in
  let count =
    Mbuf.fold_ranges m ~init:0 ~f:(fun acc _ ~off:_ ~len -> acc + len)
  in
  check_int "ranges cover payload" (String.length payload) count

(* --- storage selection (small mbuf vs cluster) ------------------------- *)

let test_small_mbuf_for_small_payload () =
  (* headroom + len ≤ mlen must yield exactly one small mbuf whose
     headroom the TCP/IP/link prepends then reuse without new segments *)
  let len = Mbuf.mlen - Mbuf.default_headroom in
  let m = Mbuf.of_string (String.make len 'p') in
  check_int "one segment" 1 (Mbuf.seg_count m);
  let buf, off = Mbuf.prepend m Mbuf.default_headroom in
  Bytes.fill buf off Mbuf.default_headroom 'h';
  check_int "headers fit in headroom" 1 (Mbuf.seg_count m);
  check_int "length" Mbuf.mlen (Mbuf.length m)

let test_cluster_chunk_boundaries () =
  let one = Mbuf.of_bytes (Bytes.make Mbuf.cluster_size 'x') ~off:0
      ~len:Mbuf.cluster_size
  in
  check_int "exactly one cluster" 1 (Mbuf.seg_count one);
  let two = Mbuf.of_bytes (Bytes.make (Mbuf.cluster_size + 1) 'x') ~off:0
      ~len:(Mbuf.cluster_size + 1)
  in
  check_int "one byte over spills" 2 (Mbuf.seg_count two)

(* --- differential suite: view-based ops vs a copying reference --------- *)

(* A multi-segment chain of zero-copy views over one shared buffer, cut
   at arbitrary (frequently odd) offsets — the shape the receive path
   builds — checked against plain string arithmetic. *)
let chain_of_cuts s cuts =
  let n = String.length s in
  let b = Bytes.of_string s in
  let cuts =
    List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts)
  in
  let m = Mbuf.empty () in
  let rec go off = function
    | [] -> if n - off >= 0 then Mbuf.concat m (Mbuf.of_bytes_view b ~off ~len:(n - off))
    | c :: rest ->
      Mbuf.concat m (Mbuf.of_bytes_view b ~off ~len:(c - off));
      go c rest
  in
  go 0 cuts;
  (m, b)

let chain_gen =
  QCheck.(pair (string_of_size Gen.(0 -- 3000)) (list_of_size Gen.(0 -- 8) small_nat))

let prop_view_roundtrip =
  QCheck.Test.make ~name:"view: chain of views = original" ~count:200
    chain_gen
    (fun (s, cuts) ->
      let m, _ = chain_of_cuts s cuts in
      Mbuf.to_string m = s)

let prop_view_split_partition =
  QCheck.Test.make ~name:"view: split partitions, concat restores"
    ~count:200
    QCheck.(pair chain_gen small_nat)
    (fun ((s, cuts), n) ->
      let n = n mod (String.length s + 1) in
      let m, _ = chain_of_cuts s cuts in
      let head = Mbuf.split m n in
      let parts_ok =
        Mbuf.to_string head = String.sub s 0 n
        && Mbuf.to_string m = String.sub s n (String.length s - n)
      in
      Mbuf.concat head m;
      parts_ok && Mbuf.to_string head = s)

let prop_sub_view_matches_sub =
  QCheck.Test.make ~name:"view: sub_view = String.sub, non-destructive"
    ~count:200
    QCheck.(triple chain_gen small_nat small_nat)
    (fun ((s, cuts), a, b) ->
      let len_s = String.length s in
      let off = if len_s = 0 then 0 else a mod len_s in
      let len = b mod (len_s - off + 1) in
      let m, _ = chain_of_cuts s cuts in
      Mbuf.to_string (Mbuf.sub_view m ~off ~len) = String.sub s off len
      && Mbuf.to_string m = s)

let prop_view_trim =
  QCheck.Test.make ~name:"view: trim_front/back = String.sub" ~count:200
    QCheck.(triple chain_gen small_nat small_nat)
    (fun ((s, cuts), f, bk) ->
      let len_s = String.length s in
      let f = if len_s = 0 then 0 else f mod (len_s + 1) in
      let bk = bk mod (len_s - f + 1) in
      let m, _ = chain_of_cuts s cuts in
      Mbuf.trim_front m f;
      Mbuf.trim_back m bk;
      Mbuf.to_string m = String.sub s f (len_s - f - bk))

let prop_view_copy_range =
  QCheck.Test.make ~name:"view: copy_range = String.sub" ~count:200
    QCheck.(triple chain_gen small_nat small_nat)
    (fun ((s, cuts), a, b) ->
      let len_s = String.length s in
      let off = if len_s = 0 then 0 else a mod len_s in
      let len = b mod (len_s - off + 1) in
      let m, _ = chain_of_cuts s cuts in
      Mbuf.to_string (Mbuf.copy_range m ~off ~len) = String.sub s off len)

let prop_chain_checksum_equals_flat =
  QCheck.Test.make
    ~name:"view: segment-wise checksum = flat checksum" ~count:500
    chain_gen
    (fun (s, cuts) ->
      let m, _ = chain_of_cuts s cuts in
      let flat = Bytes.of_string s in
      let chain_ck =
        Psd_util.Checksum.finish (Mbuf.checksum_add m Psd_util.Checksum.empty)
      in
      chain_ck
      = Psd_util.Checksum.of_bytes flat ~off:0 ~len:(String.length s))

let prop_prepend_never_writes_shared =
  QCheck.Test.make
    ~name:"view: prepend never mutates the viewed buffer" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 500)) Gen.(1 -- 64 |> fun g -> make g))
    (fun (s, hdr) ->
      (* view into the middle of a buffer: bytes before [off] look like
         headroom, but the segment is shared, so prepend must not reuse
         them *)
      let b = Bytes.of_string ("PREFIX__" ^ s) in
      let before = Bytes.to_string b in
      let m = Mbuf.of_bytes_view b ~off:8 ~len:(String.length s) in
      let buf, off = Mbuf.prepend m hdr in
      Bytes.fill buf off hdr 'Z';
      Bytes.to_string b = before
      && Mbuf.to_string m = String.make hdr 'Z' ^ s)

let prop_split_isolates_halves =
  QCheck.Test.make
    ~name:"view: prepend after split never corrupts the other half"
    ~count:200
    QCheck.(pair (string_of_size Gen.(2 -- 2000)) small_nat)
    (fun (s, n) ->
      let n = 1 + (n mod (String.length s - 1)) in
      let m = Mbuf.of_string s in
      let head = Mbuf.split m n in
      let buf, off = Mbuf.prepend m 16 in
      Bytes.fill buf off 16 'Z';
      let buf2, off2 = Mbuf.prepend head 16 in
      Bytes.fill buf2 off2 16 'Y';
      Mbuf.to_string head = String.make 16 'Y' ^ String.sub s 0 n
      && Mbuf.to_string m
         = String.make 16 'Z' ^ String.sub s n (String.length s - n))

(* --- loan lifetime: the NEWAPI hands these same view chains to the
   application as borrowed references, so a loaned head must keep
   reading correct bytes no matter what the protocol stack does to the
   rest of the chain afterwards ------------------------------------- *)

let prop_loan_survives_source_drain =
  QCheck.Test.make
    ~name:"view: loaned head survives drain/append on the source chain"
    ~count:200
    QCheck.(triple chain_gen small_nat (string_of_size Gen.(0 -- 500)))
    (fun ((s, cuts), n, extra) ->
      let n = n mod (String.length s + 1) in
      let m, _ = chain_of_cuts s cuts in
      (* split is the sockbuf take discipline: the loan shares buffers
         with what stays queued *)
      let loan = Mbuf.split m n in
      Mbuf.concat m (Mbuf.of_string extra);
      let rest = String.sub s n (String.length s - n) ^ extra in
      let drained = Mbuf.split m (Mbuf.length m / 2) in
      Mbuf.to_string loan = String.sub s 0 n
      && Mbuf.to_string drained ^ Mbuf.to_string m = rest)

let prop_loan_view_outlives_parent_trim =
  QCheck.Test.make
    ~name:"view: sub_view loan stays correct as the parent is trimmed away"
    ~count:200
    QCheck.(triple chain_gen small_nat small_nat)
    (fun ((s, cuts), a, b) ->
      let len_s = String.length s in
      let off = if len_s = 0 then 0 else a mod len_s in
      let len = b mod (len_s - off + 1) in
      let m, _ = chain_of_cuts s cuts in
      let loan = Mbuf.sub_view m ~off ~len in
      Mbuf.trim_front m (min len_s (off + len));
      Mbuf.trim_back m (Mbuf.length m);
      Mbuf.to_string loan = String.sub s off len)

let prop_owned_alias_rexmt_isolation =
  QCheck.Test.make
    ~name:"view: aliases of one owned buffer (tx + rexmt) never corrupt it"
    ~count:200
    QCheck.(triple (string_of_size Gen.(1 -- 2000)) small_nat small_nat)
    (fun (s, a, b) ->
      let len_s = String.length s in
      let off = a mod len_s in
      let len = 1 + (b mod (len_s - off)) in
      let owned = Bytes.of_string s in
      (* send_owned's first transmission and a later retransmission both
         alias the caller's bytes; each prepends its own headers *)
      let tx1 = Mbuf.of_bytes_view owned ~off ~len in
      let tx2 = Mbuf.of_bytes_view owned ~off ~len in
      let h1, o1 = Mbuf.prepend tx1 40 in
      Bytes.fill h1 o1 40 'H';
      let h2, o2 = Mbuf.prepend tx2 40 in
      Bytes.fill h2 o2 40 'R';
      let body = String.sub s off len in
      Bytes.to_string owned = s
      && Mbuf.to_string tx1 = String.make 40 'H' ^ body
      && Mbuf.to_string tx2 = String.make 40 'R' ^ body)

let prop_roundtrip =
  QCheck.Test.make ~name:"mbuf: of_string/to_string roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 5000))
    (fun s -> Mbuf.to_string (Mbuf.of_string s) = s)

let prop_trim_then_length =
  QCheck.Test.make ~name:"mbuf: trim_front reduces length" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 4000)) small_nat)
    (fun (s, n) ->
      let n = n mod (String.length s + 1) in
      let m = Mbuf.of_string s in
      Mbuf.trim_front m n;
      Mbuf.to_string m = String.sub s n (String.length s - n))

let prop_copy_range_matches_sub =
  QCheck.Test.make ~name:"mbuf: copy_range = String.sub" ~count:200
    QCheck.(triple (string_of_size Gen.(1 -- 4000)) small_nat small_nat)
    (fun (s, a, b) ->
      let len_s = String.length s in
      let off = a mod len_s in
      let len = b mod (len_s - off + 1) in
      let m = Mbuf.of_string s in
      Mbuf.to_string (Mbuf.copy_range m ~off ~len) = String.sub s off len)

let prop_split_partition =
  QCheck.Test.make ~name:"mbuf: split partitions payload" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 3000)) small_nat)
    (fun (s, n) ->
      let n = n mod (String.length s + 1) in
      let m = Mbuf.of_string s in
      let head = Mbuf.split m n in
      Mbuf.to_string head ^ Mbuf.to_string m = s)

let () =
  Alcotest.run "psd_mbuf"
    [
      ( "mbuf",
        [
          Alcotest.test_case "roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "chunking" `Quick test_chunking;
          Alcotest.test_case "prepend headroom" `Quick
            test_prepend_in_headroom;
          Alcotest.test_case "prepend overflow" `Quick
            test_prepend_overflow_headroom;
          Alcotest.test_case "prepend empty" `Quick test_prepend_empty_payload;
          Alcotest.test_case "trim front" `Quick test_trim_front;
          Alcotest.test_case "trim front cross-seg" `Quick
            test_trim_front_across_segments;
          Alcotest.test_case "trim back" `Quick test_trim_back;
          Alcotest.test_case "trim back cross-seg" `Quick
            test_trim_back_across_segments;
          Alcotest.test_case "trim bounds" `Quick test_trim_bounds;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "copy_range" `Quick test_copy_range;
          Alcotest.test_case "copy_range cross-seg" `Quick
            test_copy_range_across_segments;
          Alcotest.test_case "copy_range bounds" `Quick test_copy_range_bounds;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "fold_ranges" `Quick
            test_fold_ranges_checksum_consistency;
          Alcotest.test_case "small mbuf" `Quick
            test_small_mbuf_for_small_payload;
          Alcotest.test_case "cluster boundaries" `Quick
            test_cluster_chunk_boundaries;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_roundtrip;
              prop_trim_then_length;
              prop_copy_range_matches_sub;
              prop_split_partition;
            ] );
      ( "views",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_view_roundtrip;
            prop_view_split_partition;
            prop_sub_view_matches_sub;
            prop_view_trim;
            prop_view_copy_range;
            prop_chain_checksum_equals_flat;
            prop_prepend_never_writes_shared;
            prop_split_isolates_halves;
            prop_loan_survives_source_drain;
            prop_loan_view_outlives_parent_trim;
            prop_owned_alias_rexmt_isolation;
          ] );
    ]
