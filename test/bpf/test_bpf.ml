open Psd_bpf
open Psd_util

(* Build a minimal Ethernet+IPv4+transport frame for filter tests. *)
let make_frame ?(ethertype = 0x0800) ?(ip_proto = 6) ?(src_ip = 0x0a000001)
    ?(dst_ip = 0x0a000002) ?(src_port = 1234) ?(dst_port = 80)
    ?(frag_off = 0) ?(ip_hl = 5) ?(payload_len = 4) () =
  let ip_hlen = ip_hl * 4 in
  let total = 14 + ip_hlen + 8 + payload_len in
  let b = Bytes.make total '\x00' in
  Codec.set_u16 b 12 ethertype;
  Codec.set_u8 b 14 ((4 lsl 4) lor ip_hl);
  Codec.set_u16 b (14 + 6) frag_off;
  Codec.set_u8 b (14 + 9) ip_proto;
  Codec.set_u32i b (14 + 12) src_ip;
  Codec.set_u32i b (14 + 16) dst_ip;
  Codec.set_u16 b (14 + ip_hlen) src_port;
  Codec.set_u16 b (14 + ip_hlen + 2) dst_port;
  b

let accepts prog pkt =
  match Vm.run prog pkt with
  | Ok (n, _) -> n > 0
  | Error `Invalid -> Alcotest.fail "invalid program"

(* --- VM semantics ---------------------------------------------------- *)

let ret_a_of insns input =
  let prog = Array.of_list insns in
  match Vm.run prog input with
  | Ok (v, _) -> v
  | Error `Invalid -> Alcotest.fail "invalid program"

let test_vm_loads () =
  let pkt = Bytes.of_string "\x01\x02\x03\x04\x05" in
  let open Insn in
  Alcotest.(check int) "ldb" 0x03
    (ret_a_of [ Ld (B, Abs 2); Ret RetA ] pkt);
  Alcotest.(check int) "ldh" 0x0203
    (ret_a_of [ Ld (H, Abs 1); Ret RetA ] pkt);
  Alcotest.(check int) "ldw" 0x01020304
    (ret_a_of [ Ld (W, Abs 0); Ret RetA ] pkt);
  Alcotest.(check int) "len" 5 (ret_a_of [ Ld (W, Len); Ret RetA ] pkt);
  Alcotest.(check int) "imm" 77 (ret_a_of [ Ld (W, Imm 77); Ret RetA ] pkt)

let test_vm_out_of_bounds_rejects () =
  let pkt = Bytes.of_string "\x01\x02" in
  let open Insn in
  Alcotest.(check int) "oob w" 0
    (ret_a_of [ Ld (W, Abs 0); Ret (RetK 99) ] pkt);
  Alcotest.(check int) "oob ind" 0
    (ret_a_of [ Ldx (Imm 100); Ld (B, Ind 0); Ret (RetK 99) ] pkt)

let test_vm_alu () =
  let pkt = Bytes.create 1 in
  let open Insn in
  let calc insns = ret_a_of (Ld (W, Imm 12) :: insns @ [ Ret RetA ]) pkt in
  Alcotest.(check int) "add" 15 (calc [ Alu (Add, K 3) ]);
  Alcotest.(check int) "sub" 9 (calc [ Alu (Sub, K 3) ]);
  Alcotest.(check int) "mul" 36 (calc [ Alu (Mul, K 3) ]);
  Alcotest.(check int) "div" 4 (calc [ Alu (Div, K 3) ]);
  Alcotest.(check int) "and" 8 (calc [ Alu (And, K 0b1010) ]);
  Alcotest.(check int) "or" 14 (calc [ Alu (Or, K 0b0110) ]);
  Alcotest.(check int) "lsh" 48 (calc [ Alu (Lsh, K 2) ]);
  Alcotest.(check int) "rsh" 3 (calc [ Alu (Rsh, K 2) ]);
  Alcotest.(check int) "neg" ((-12) land 0xffffffff) (calc [ Neg ]);
  Alcotest.(check int) "x path" 19
    (ret_a_of
       [ Ld (W, Imm 7); Tax; Ld (W, Imm 12); Alu (Add, X); Ret RetA ]
       pkt)

let test_vm_scratch () =
  let pkt = Bytes.create 1 in
  let open Insn in
  Alcotest.(check int) "st/ld mem" 42
    (ret_a_of
       [ Ld (W, Imm 42); St 3; Ld (W, Imm 0); Ld (W, Mem 3); Ret RetA ]
       pkt)

let test_vm_msh () =
  (* byte 0 = 0x45 -> 4 * 5 = 20 *)
  let pkt = Bytes.of_string "\x45\x00" in
  let open Insn in
  Alcotest.(check int) "msh" 20
    (ret_a_of [ Ldx (Msh 0); Txa; Ret RetA ] pkt)

let test_vm_jumps () =
  let pkt = Bytes.create 1 in
  let open Insn in
  let prog c v =
    [ Ld (W, Imm 10); Jmp (c, K v, 0, 1); Ret (RetK 1); Ret (RetK 0) ]
  in
  let run c v = ret_a_of (prog c v) pkt in
  Alcotest.(check int) "jeq taken" 1 (run Jeq 10);
  Alcotest.(check int) "jeq not" 0 (run Jeq 11);
  Alcotest.(check int) "jgt" 1 (run Jgt 9);
  Alcotest.(check int) "jge" 1 (run Jge 10);
  Alcotest.(check int) "jset" 1 (run Jset 2);
  Alcotest.(check int) "jset not" 0 (run Jset 4);
  Alcotest.(check int) "ja" 5
    (ret_a_of [ Ja 1; Ret (RetK 9); Ret (RetK 5) ] pkt)

let test_vm_insn_count () =
  let pkt = Bytes.create 4 in
  let open Insn in
  match Vm.run [| Ld (W, Imm 1); Alu (Add, K 1); Ret RetA |] pkt with
  | Ok (v, steps) ->
    Alcotest.(check int) "value" 2 v;
    Alcotest.(check int) "steps" 3 steps
  | Error `Invalid -> Alcotest.fail "invalid"

(* --- validator ------------------------------------------------------- *)

let expect_invalid name prog expected =
  match Vm.validate prog with
  | Ok () -> Alcotest.failf "%s: expected invalid" name
  | Error e ->
    Alcotest.(check string) name expected (Format.asprintf "%a" Vm.pp_error e)

let test_validate_errors () =
  let open Insn in
  expect_invalid "empty" [||] "empty program";
  expect_invalid "no ret" [| Ld (W, Imm 0) |] "program can fall off the end";
  expect_invalid "jump range"
    [| Jmp (Jeq, K 0, 5, 0); Ret (RetK 0) |]
    "jump out of range at 0";
  expect_invalid "div0"
    [| Alu (Div, K 0); Ret RetA |]
    "constant division by zero at 0";
  expect_invalid "scratch" [| St 16; Ret (RetK 0) |] "bad scratch index at 0";
  expect_invalid "msh in ld"
    [| Ld (W, Msh 0); Ret RetA |]
    "msh addressing outside ldx at 0"

let test_validate_ok () =
  match Vm.validate Filter.ip_all with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ip_all invalid: %a" Vm.pp_error e

(* --- assembler ------------------------------------------------------- *)

let test_asm_unknown_label () =
  match Asm.assemble [ Asm.Goto "nowhere"; Asm.I (Insn.Ret (Insn.RetK 0)) ] with
  | Error msg -> Alcotest.(check string) "msg" "unknown label nowhere" msg
  | Ok _ -> Alcotest.fail "expected error"

let test_asm_duplicate_label () =
  match
    Asm.assemble
      [ Asm.Label "a"; Asm.Label "a"; Asm.I (Insn.Ret (Insn.RetK 0)) ]
  with
  | Error msg -> Alcotest.(check string) "msg" "duplicate label a" msg
  | Ok _ -> Alcotest.fail "expected error"

let test_asm_backward_jump () =
  match
    Asm.assemble
      [
        Asm.Label "loop";
        Asm.I (Insn.Ld (Insn.W, Insn.Imm 0));
        Asm.Goto "loop";
        Asm.I (Insn.Ret (Insn.RetK 0));
      ]
  with
  | Error msg -> Alcotest.(check string) "msg" "backward jump to loop" msg
  | Ok _ -> Alcotest.fail "expected error"

(* --- session filters ------------------------------------------------- *)

let tcp_spec =
  {
    Filter.proto = Filter.Tcp;
    local_ip = 0x0a000002;
    local_port = 80;
    remote_ip = Some 0x0a000001;
    remote_port = Some 1234;
  }

let test_filter_accepts_match () =
  let prog = Filter.session tcp_spec in
  Alcotest.(check bool) "match" true (accepts prog (make_frame ()))

let test_filter_rejects_wrong_fields () =
  let prog = Filter.session tcp_spec in
  let cases =
    [
      ("ethertype", make_frame ~ethertype:0x0806 ());
      ("proto", make_frame ~ip_proto:17 ());
      ("dst ip", make_frame ~dst_ip:0x0a000003 ());
      ("src ip", make_frame ~src_ip:0x0a000009 ());
      ("dst port", make_frame ~dst_port:81 ());
      ("src port", make_frame ~src_port:4321 ());
    ]
  in
  List.iter
    (fun (name, frame) ->
      Alcotest.(check bool) name false (accepts prog frame))
    cases

let test_filter_wildcard_remote () =
  let spec =
    { tcp_spec with Filter.remote_ip = None; remote_port = None }
  in
  let prog = Filter.session spec in
  Alcotest.(check bool) "any peer" true
    (accepts prog (make_frame ~src_ip:0x01020304 ~src_port:9999 ()));
  Alcotest.(check bool) "still checks dst port" false
    (accepts prog (make_frame ~dst_port:8080 ()))

let test_filter_ip_options () =
  (* A larger IP header moves the ports; MSH addressing must follow. *)
  let prog = Filter.session tcp_spec in
  Alcotest.(check bool) "ihl=8" true (accepts prog (make_frame ~ip_hl:8 ()))

let test_filter_fragments () =
  let prog = Filter.session tcp_spec in
  (* Non-first fragment matching at address level: accepted though ports
     are garbage at the transport offset. *)
  let frag = make_frame ~frag_off:0x0010 ~dst_port:0 ~src_port:0 () in
  Alcotest.(check bool) "non-first frag accepted" true (accepts prog frag);
  (* Non-first fragment of someone else's flow: rejected on address. *)
  let other = make_frame ~frag_off:0x0010 ~dst_ip:0x0a000007 () in
  Alcotest.(check bool) "other host frag rejected" false (accepts prog other)

let test_filter_udp () =
  let spec =
    {
      Filter.proto = Filter.Udp;
      local_ip = 0x0a000002;
      local_port = 7;
      remote_ip = None;
      remote_port = None;
    }
  in
  let prog = Filter.session spec in
  Alcotest.(check bool) "udp match" true
    (accepts prog (make_frame ~ip_proto:17 ~dst_port:7 ()));
  Alcotest.(check bool) "tcp rejected" false
    (accepts prog (make_frame ~ip_proto:6 ~dst_port:7 ()))

let test_filter_arp () =
  Alcotest.(check bool) "arp" true
    (accepts Filter.arp (make_frame ~ethertype:0x0806 ()));
  Alcotest.(check bool) "not ip" false (accepts Filter.arp (make_frame ()))

let test_filter_short_packet () =
  let prog = Filter.session tcp_spec in
  Alcotest.(check bool) "truncated rejected" false
    (accepts prog (Bytes.create 10))

let prop_session_exactness =
  QCheck.Test.make ~name:"filter: accepts iff all fields match" ~count:500
    QCheck.(
      quad (int_bound 1) (int_bound 1) (int_bound 1) (int_bound 1))
    (fun (wrong_dst, wrong_proto, wrong_dport, wrong_sport) ->
      let prog = Filter.session tcp_spec in
      let frame =
        make_frame
          ~dst_ip:(if wrong_dst = 1 then 0x0b0b0b0b else 0x0a000002)
          ~ip_proto:(if wrong_proto = 1 then 17 else 6)
          ~dst_port:(if wrong_dport = 1 then 81 else 80)
          ~src_port:(if wrong_sport = 1 then 55 else 1234)
          ()
      in
      let should_match =
        wrong_dst = 0 && wrong_proto = 0 && wrong_dport = 0 && wrong_sport = 0
      in
      accepts prog frame = should_match)

(* Fuzz: any program the validator accepts must be interpretable on any
   packet — terminating, raising nothing, returning a value. *)
let gen_insn =
  let open QCheck.Gen in
  let size = oneofl [ Insn.B; Insn.H; Insn.W ] in
  let mode =
    oneof
      [
        map (fun k -> Insn.Abs (k mod 80)) small_nat;
        map (fun k -> Insn.Ind (k mod 80)) small_nat;
        return Insn.Len;
        map (fun k -> Insn.Imm k) small_nat;
        map (fun k -> Insn.Mem (k mod 16)) small_nat;
      ]
  in
  let alu =
    oneofl
      [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.And; Insn.Or;
        Insn.Lsh; Insn.Rsh ]
  in
  let src =
    oneof [ map (fun k -> Insn.K (k + 1)) small_nat; return Insn.X ]
  in
  let cond = oneofl [ Insn.Jeq; Insn.Jgt; Insn.Jge; Insn.Jset ] in
  oneof
    [
      map2 (fun s m -> Insn.Ld (s, m)) size mode;
      map (fun m -> Insn.Ldx m) mode;
      map (fun k -> Insn.St (k mod 16)) small_nat;
      map (fun k -> Insn.Stx (k mod 16)) small_nat;
      map2 (fun a s -> Insn.Alu (a, s)) alu src;
      return Insn.Neg;
      return Insn.Tax;
      return Insn.Txa;
      map (fun k -> Insn.Ja k) (int_bound 3);
      map3
        (fun c s (jt, jf) -> Insn.Jmp (c, s, jt, jf))
        cond src
        (pair (int_bound 3) (int_bound 3));
      map (fun k -> Insn.Ret (Insn.RetK k)) small_nat;
      return (Insn.Ret Insn.RetA);
    ]

let gen_program =
  QCheck.Gen.(
    map
      (fun insns -> Array.of_list (insns @ [ Insn.Ret (Insn.RetK 0) ]))
      (list_size (1 -- 24) gen_insn))

(* --- differential: compiled closures vs interpreter ------------------- *)

(* Any valid program, any packet: the compiled closure must return
   exactly the interpreter's (accept, steps) — the simulator charges
   per-instruction costs from this count, so the fast path must not
   perturb virtual time. *)
let gen_packet =
  QCheck.Gen.(
    int_bound 80 >>= fun n ->
    map Bytes.unsafe_of_string (string_size ~gen:char (return n)))

let prop_compile_matches_interpreter =
  QCheck.Test.make ~name:"compile: (accept, steps) equals interpreter"
    ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_program gen_packet))
    (fun (prog, pkt) ->
      match Vm.validate prog with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let reference = Vm.run_exn prog pkt in
        let compiled = Compile.compile_exn prog in
        Compile.run compiled pkt = reference)

let prop_compile_view_matches_interpreter =
  (* exec over a view into a larger buffer = interpreting the copy *)
  QCheck.Test.make ~name:"compile: packet views equal sub-packet interp"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(triple gen_program gen_packet (int_bound 16)))
    (fun (prog, pkt, lead) ->
      match Vm.validate prog with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let padded = Bytes.cat (Bytes.make lead '\xaa') (Bytes.cat pkt (Bytes.make 3 '\xbb')) in
        let compiled = Compile.compile_exn prog in
        Compile.exec compiled padded ~off:lead ~len:(Bytes.length pkt)
        = Vm.run_exn prog pkt)

(* --- differential: flat session descriptors vs interpreter ------------ *)

(* Draw spec fields and frame fields from small overlapping pools so
   accepts, each distinct rejection point, fragments, IP options and
   truncations all occur; flat match, compiled closure and interpreter
   must agree exactly, steps included — for the session descriptor and
   for the ARP and all-IP ethertype descriptors alike. *)
let session_ips = [ 0x0a000001; 0x0a000002; 0x0a000003 ]
let session_ports = [ 7; 80; 1234; 9999 ]

(* remote address and port each present or absent *)
let gen_spec =
  let open QCheck.Gen in
  oneofl [ Filter.Tcp; Filter.Udp ] >>= fun proto ->
  oneofl session_ips >>= fun local_ip ->
  oneofl session_ports >>= fun local_port ->
  opt (oneofl session_ips) >>= fun remote_ip ->
  opt (oneofl session_ports) >>= fun remote_port ->
  return { Filter.proto; local_ip; local_port; remote_ip; remote_port }

let gen_session_case =
  let open QCheck.Gen in
  let ips = session_ips and ports = session_ports in
  let gen_frame =
    oneofl [ 0x0800; 0x0806 ] >>= fun ethertype ->
    oneofl [ 1; 6; 17 ] >>= fun ip_proto ->
    oneofl ips >>= fun src_ip ->
    oneofl ips >>= fun dst_ip ->
    oneofl ports >>= fun src_port ->
    oneofl ports >>= fun dst_port ->
    oneofl [ 0; 0x0010; 0x2000 ] >>= fun frag_off ->
    oneofl [ 5; 8 ] >>= fun ip_hl ->
    int_bound 4 >>= fun payload_len ->
    return
      (make_frame ~ethertype ~ip_proto ~src_ip ~dst_ip ~src_port ~dst_port
         ~frag_off ~ip_hl ~payload_len ())
  in
  triple gen_spec gen_frame (int_bound 60)

let prop_flat_matches_interpreter =
  QCheck.Test.make
    ~name:"filter: flat, compiled and interpreter agree on (accept, steps)"
    ~count:2000
    (QCheck.make gen_session_case)
    (fun (spec, frame, cut) ->
      (* random truncation exercises every out-of-bounds load path *)
      let frame =
        if cut < Bytes.length frame then Bytes.sub frame 0 cut else frame
      in
      let prog = Filter.session spec in
      let flat = Filter.flat_of_spec spec in
      let reference = Vm.run_exn prog frame in
      let compiled = Compile.compile_exn prog in
      (* the ethertype descriptors on the same frame, shorter than
         the ethertype field included *)
      let ethertype_agrees (flat, prog) =
        let reference = Vm.run_exn prog frame in
        Filter.flat_run flat frame = reference
        && Compile.run (Compile.compile_exn prog) frame = reference
      in
      Filter.flat_run flat frame = reference
      && Compile.run compiled frame = reference
      && List.for_all ethertype_agrees
           [
             (Filter.arp_flat, Filter.arp);
             (Filter.ip_all_flat, Filter.ip_all);
           ])

(* The kernel installs session filters by their flat descriptor, so it
   never validates the session program at attach; this is where that
   check lives: every program [Filter.session] emits is valid and
   compiles. *)
let prop_session_programs_valid =
  QCheck.Test.make ~name:"filter: every session program validates and compiles"
    ~count:500
    (QCheck.make gen_spec)
    (fun spec ->
      let prog = Filter.session spec in
      Vm.validate prog = Ok ()
      && (ignore (Compile.compile_exn prog : Compile.t);
          true))

let prop_validated_programs_run_safely =
  QCheck.Test.make ~name:"bpf: validated programs always run to completion"
    ~count:2000
    (QCheck.make gen_program)
    (fun prog ->
      match Vm.validate prog with
      | Error _ -> true (* rejected: nothing to check *)
      | Ok () -> (
        let pkt = Bytes.init 64 (fun i -> Char.chr (i * 37 mod 256)) in
        match Vm.run prog pkt with
        | Ok (v, steps) -> v >= 0 && steps > 0 && steps <= 1000
        | Error `Invalid -> false
        | exception _ -> false))

let () =
  Alcotest.run "psd_bpf"
    [
      ( "vm",
        [
          Alcotest.test_case "loads" `Quick test_vm_loads;
          Alcotest.test_case "oob rejects" `Quick
            test_vm_out_of_bounds_rejects;
          Alcotest.test_case "alu" `Quick test_vm_alu;
          Alcotest.test_case "scratch" `Quick test_vm_scratch;
          Alcotest.test_case "msh" `Quick test_vm_msh;
          Alcotest.test_case "jumps" `Quick test_vm_jumps;
          Alcotest.test_case "insn count" `Quick test_vm_insn_count;
        ] );
      ( "validate",
        [
          Alcotest.test_case "errors" `Quick test_validate_errors;
          Alcotest.test_case "ok" `Quick test_validate_ok;
        ] );
      ( "asm",
        [
          Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "backward jump" `Quick test_asm_backward_jump;
        ] );
      ( "filter",
        [
          Alcotest.test_case "accepts match" `Quick test_filter_accepts_match;
          Alcotest.test_case "rejects wrong fields" `Quick
            test_filter_rejects_wrong_fields;
          Alcotest.test_case "wildcard remote" `Quick
            test_filter_wildcard_remote;
          Alcotest.test_case "ip options" `Quick test_filter_ip_options;
          Alcotest.test_case "fragments" `Quick test_filter_fragments;
          Alcotest.test_case "udp" `Quick test_filter_udp;
          Alcotest.test_case "arp" `Quick test_filter_arp;
          Alcotest.test_case "short packet" `Quick test_filter_short_packet;
          QCheck_alcotest.to_alcotest prop_session_exactness;
          QCheck_alcotest.to_alcotest prop_session_programs_valid;
          QCheck_alcotest.to_alcotest prop_validated_programs_run_safely;
        ] );
      ( "fastpath",
        [
          QCheck_alcotest.to_alcotest prop_compile_matches_interpreter;
          QCheck_alcotest.to_alcotest prop_compile_view_matches_interpreter;
          QCheck_alcotest.to_alcotest prop_flat_matches_interpreter;
        ] );
    ]
