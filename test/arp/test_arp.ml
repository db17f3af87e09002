open Psd_arp
open Psd_link

let addr = Psd_ip.Addr.of_string

let ( => ) name b = Alcotest.(check bool) name true b

let test_packet_roundtrip () =
  let p =
    {
      Packet.op = Packet.Request;
      sender_mac = Macaddr.of_host_id 1;
      sender_ip = addr "10.0.0.1";
      target_mac = Macaddr.of_string "\x00\x00\x00\x00\x00\x00";
      target_ip = addr "10.0.0.2";
    }
  in
  let b = Packet.encode p in
  Alcotest.(check int) "size" Packet.size (Bytes.length b);
  match Packet.decode b ~off:0 ~len:(Bytes.length b) with
  | Ok p' ->
    "op" => (p'.Packet.op = Packet.Request);
    "sender ip" => Psd_ip.Addr.equal p'.Packet.sender_ip (addr "10.0.0.1");
    "sender mac" => Macaddr.equal p'.Packet.sender_mac (Macaddr.of_host_id 1)
  | Error e -> Alcotest.fail e

let test_packet_rejects () =
  let b = Bytes.make 10 '\x00' in
  (match Packet.decode b ~off:0 ~len:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short accepted");
  let p =
    Packet.encode
      {
        Packet.op = Packet.Reply;
        sender_mac = Macaddr.of_host_id 1;
        sender_ip = addr "10.0.0.1";
        target_mac = Macaddr.of_host_id 2;
        target_ip = addr "10.0.0.2";
      }
  in
  Psd_util.Codec.set_u16 p 6 9 (* bad op *);
  match Packet.decode p ~off:0 ~len:(Bytes.length p) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad op accepted"

let test_cache_basic () =
  let eng = Psd_sim.Engine.create () in
  let c = Cache.create eng () in
  Alcotest.(check bool) "miss" true (Cache.lookup c (addr "10.0.0.9") = None);
  Cache.insert c (addr "10.0.0.9") (Macaddr.of_host_id 9);
  (match Cache.lookup c (addr "10.0.0.9") with
  | Some mac -> "hit" => Macaddr.equal mac (Macaddr.of_host_id 9)
  | None -> Alcotest.fail "expected hit");
  Cache.invalidate c (addr "10.0.0.9");
  "gone" => (Cache.lookup c (addr "10.0.0.9") = None)

let test_cache_expiry () =
  let eng = Psd_sim.Engine.create () in
  let c = Cache.create eng ~ttl_ns:(Psd_sim.Time.ms 100) () in
  Cache.insert c (addr "10.0.0.9") (Macaddr.of_host_id 9);
  Psd_sim.Engine.run_until eng (Psd_sim.Time.ms 50);
  "still valid" => (Cache.lookup c (addr "10.0.0.9") <> None);
  Psd_sim.Engine.run_until eng (Psd_sim.Time.ms 150);
  "expired" => (Cache.lookup c (addr "10.0.0.9") = None)

let test_cache_notification () =
  (* The paper's metastate-invalidation mechanism: subscribers (application
     caches) hear about every change. *)
  let eng = Psd_sim.Engine.create () in
  let c = Cache.create eng () in
  let events = ref [] in
  Cache.subscribe c (fun ip -> events := ip :: !events);
  Cache.insert c (addr "10.0.0.9") (Macaddr.of_host_id 9);
  Cache.invalidate c (addr "10.0.0.9");
  Alcotest.(check int) "two events" 2 (List.length !events)

(* Two resolvers wired over a lossless broadcast medium. *)
let wire_pair () =
  let eng = Psd_sim.Engine.create () in
  let make ip id peer_input =
    let cache = Cache.create eng () in
    let resolver = ref None in
    let send ~dst p =
      ignore dst;
      Psd_sim.Engine.schedule eng 10_000 (fun () ->
          match !peer_input with Some f -> f p | None -> ())
    in
    let r =
      Resolver.create ~eng ~cache ~my_ip:(addr ip)
        ~my_mac:(Macaddr.of_host_id id) ~send
        ~retry_interval_ns:(Psd_sim.Time.ms 50) ()
    in
    resolver := Some r;
    (r, cache)
  in
  let input_b = ref None and input_a = ref None in
  let ra, ca = make "10.0.0.1" 1 input_b in
  let rb, cb = make "10.0.0.2" 2 input_a in
  input_a := Some (fun p -> Resolver.input ra p);
  input_b := Some (fun p -> Resolver.input rb p);
  (eng, ra, ca, rb, cb)

let test_resolve_query_reply () =
  let eng, ra, ca, _rb, _cb = wire_pair () in
  let result = ref None in
  Resolver.resolve ra (addr "10.0.0.2") (fun r -> result := r);
  Psd_sim.Engine.run eng;
  (match !result with
  | Some mac -> "resolved" => Macaddr.equal mac (Macaddr.of_host_id 2)
  | None -> Alcotest.fail "resolution failed");
  "cached" => (Cache.lookup ca (addr "10.0.0.2") <> None);
  Alcotest.(check int) "no pending" 0 (Resolver.pending ra)

let test_resolve_cache_hit_no_traffic () =
  let eng, ra, ca, _rb, _cb = wire_pair () in
  Cache.insert ca (addr "10.0.0.2") (Macaddr.of_host_id 2);
  let immediate = ref false in
  Resolver.resolve ra (addr "10.0.0.2") (fun r ->
      immediate := r <> None);
  "cache hit is synchronous" => !immediate;
  Psd_sim.Engine.run eng

let test_resolve_timeout () =
  let eng = Psd_sim.Engine.create () in
  let cache = Cache.create eng () in
  let queries = ref 0 in
  let r =
    Resolver.create ~eng ~cache ~my_ip:(addr "10.0.0.1")
      ~my_mac:(Macaddr.of_host_id 1)
      ~send:(fun ~dst:_ _ -> incr queries)
      ~retries:3
      ~retry_interval_ns:(Psd_sim.Time.ms 10) ()
  in
  let result = ref (Some (Macaddr.of_host_id 9)) in
  Resolver.resolve r (addr "10.0.0.99") (fun res -> result := res);
  Psd_sim.Engine.run eng;
  "timed out with None" => (!result = None);
  Alcotest.(check int) "1 + 3 retries" 4 !queries;
  Alcotest.(check int) "no pending" 0 (Resolver.pending r)

(* An address learned while its query waits to be retried, then
   invalidated and resolved again inside the retry interval: the old
   retry belongs to the finished resolution and must neither query for
   the new one nor fail it. *)
let test_rearm_after_learn () =
  let eng = Psd_sim.Engine.create () in
  let cache = Cache.create eng () in
  let ms = Psd_sim.Time.ms in
  let log = ref [] in
  let note what = log := (Psd_sim.Engine.now eng, what) :: !log in
  let r =
    Resolver.create ~eng ~cache ~my_ip:(addr "10.0.0.1")
      ~my_mac:(Macaddr.of_host_id 1)
      ~send:(fun ~dst:_ _ -> note "query")
      ~retries:2 ~retry_interval_ns:(ms 10) ()
  in
  let peer = addr "10.0.0.2" in
  let outcome name res =
    note (name ^ if res = None then " failed" else " resolved")
  in
  Resolver.resolve r peer (outcome "first");
  Psd_sim.Engine.schedule eng (ms 2) (fun () ->
      Resolver.input r
        {
          Packet.op = Packet.Reply;
          sender_mac = Macaddr.of_host_id 2;
          sender_ip = peer;
          target_mac = Macaddr.of_host_id 1;
          target_ip = addr "10.0.0.1";
        });
  Psd_sim.Engine.schedule eng (ms 3) (fun () ->
      Cache.invalidate cache peer;
      Resolver.resolve r peer (outcome "second"));
  Psd_sim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "only the second resolution's own retries"
    [
      (0, "query");
      (ms 2, "first resolved");
      (ms 3, "query");
      (ms 13, "query");
      (ms 23, "query");
      (ms 33, "second failed");
    ]
    (List.rev !log);
  Alcotest.(check int) "no pending" 0 (Resolver.pending r)

let test_concurrent_resolutions_share_query () =
  let eng, ra, _ca, _rb, _cb = wire_pair () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    Resolver.resolve ra (addr "10.0.0.2") (fun r ->
        if r <> None then incr hits)
  done;
  Alcotest.(check int) "single pending entry" 1 (Resolver.pending ra);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "all continuations fired" 5 !hits

let test_request_triggers_reply_and_learning () =
  let eng, ra, ca, rb, _cb = wire_pair () in
  ignore rb;
  (* b resolves a; a should end up knowing b as well (it replied to it) *)
  let done_ = ref false in
  Resolver.resolve ra (addr "10.0.0.2") (fun _ -> done_ := true);
  Psd_sim.Engine.run eng;
  "resolved" => !done_;
  "a learned b" => (Cache.lookup ca (addr "10.0.0.2") <> None)

let test_reply_loss_retries () =
  (* The wire eats the first ARP reply: the resolver must retry the
     query and succeed on the second round trip, not hang or fail. *)
  let eng = Psd_sim.Engine.create () in
  let input_a = ref None and input_b = ref None in
  let queries = ref 0 in
  let replies_to_drop = ref 1 in
  let make ip id peer_input ~drop =
    let cache = Cache.create eng () in
    let send ~dst p =
      ignore dst;
      if not (drop p) then
        Psd_sim.Engine.schedule eng 10_000 (fun () ->
            match !peer_input with Some f -> f p | None -> ())
    in
    let r =
      Resolver.create ~eng ~cache ~my_ip:(addr ip)
        ~my_mac:(Macaddr.of_host_id id) ~send
        ~retry_interval_ns:(Psd_sim.Time.ms 50) ()
    in
    (r, cache)
  in
  let ra, ca =
    make "10.0.0.1" 1 input_b ~drop:(fun p ->
        if p.Packet.op = Packet.Request then incr queries;
        false)
  in
  let rb, _cb =
    make "10.0.0.2" 2 input_a ~drop:(fun p ->
        p.Packet.op = Packet.Reply && !replies_to_drop > 0
        && begin
             decr replies_to_drop;
             true
           end)
  in
  input_a := Some (fun p -> Resolver.input ra p);
  input_b := Some (fun p -> Resolver.input rb p);
  let result = ref None in
  Resolver.resolve ra (addr "10.0.0.2") (fun r -> result := r);
  Psd_sim.Engine.run eng;
  (match !result with
  | Some mac -> "resolved after loss" => Macaddr.equal mac (Macaddr.of_host_id 2)
  | None -> Alcotest.fail "reply loss killed the resolution");
  Alcotest.(check int) "retried exactly once" 2 !queries;
  "cached" => (Cache.lookup ca (addr "10.0.0.2") <> None);
  Alcotest.(check int) "no pending" 0 (Resolver.pending ra)

(* --- Bytes-level input ------------------------------------------------ *)

(* One resolver with everything it does made observable: the packets it
   sends, the resolutions it completes, and its cache notifications
   (which include an expiry found by a lookup), logged and counted by
   two subscribers. *)
type twin = {
  eng : Psd_sim.Engine.t;
  res : Resolver.t;
  cache : Cache.t;
  events : string list ref; (* newest first *)
  notified : int ref;
}

let my_ip = 1

let pool_ip i = addr (Printf.sprintf "10.0.0.%d" i)

let make_twin ~cached ~pending =
  let eng = Psd_sim.Engine.create () in
  let cache = Cache.create eng ~ttl_ns:100 () in
  let events = ref [] in
  let note fmt = Printf.ksprintf (fun s -> events := s :: !events) fmt in
  Cache.subscribe cache (fun ip -> note "notify %d" (Psd_ip.Addr.to_int ip));
  let notified = ref 0 in
  Cache.subscribe cache (fun _ -> incr notified);
  let send ~dst p =
    note "send %s %S" (Macaddr.to_string dst)
      (Bytes.to_string (Packet.encode p))
  in
  let res =
    Resolver.create ~eng ~cache ~my_ip:(pool_ip my_ip)
      ~my_mac:(Macaddr.of_host_id my_ip) ~send ()
  in
  (* pending first, so an address may be both pending and cached *)
  List.iter
    (fun i ->
      Resolver.resolve res (pool_ip i) (function
        | Some mac -> note "resolved %d %s" i (Macaddr.to_string mac)
        | None -> note "failed %d" i))
    pending;
  List.iter (fun i -> Cache.insert cache (pool_ip i) (Macaddr.of_host_id i)) cached;
  { eng; res; cache; events; notified }

let observe tw =
  ( List.rev !(tw.events),
    !(tw.notified),
    Resolver.pending tw.res,
    List.sort compare
      (List.map
         (fun (ip, mac) -> (Psd_ip.Addr.to_int ip, Macaddr.to_string mac))
         (Cache.entries tw.cache)) )

(* Arbitrary bytes, and valid requests and replies among a small pool of
   addresses (so targets hit our own address and senders hit the cache
   and the pending set), mutated in a few bytes or truncated; and
   who-has broadcasts for another address from a sender in the cached
   pool, with the MAC it was cached under or a new one. The delays
   between inputs let cached entries expire (their lifetime is 100). *)
let gen_arp_input =
  let open QCheck.Gen in
  let ip = 1 -- 5 in
  let from_cached =
    map
      (fun (s, tg, new_mac) ->
        Packet.encode
          {
            Packet.op = Packet.Request;
            sender_mac = Macaddr.of_host_id (if new_mac then s + 10 else s);
            sender_ip = pool_ip s;
            target_mac = Macaddr.of_host_id tg;
            target_ip = pool_ip tg;
          })
      (triple (2 -- 5) (2 -- 5) bool)
  in
  let valid =
    map
      (fun (req, s, tg, m) ->
        Packet.encode
          {
            Packet.op = (if req then Packet.Request else Packet.Reply);
            sender_mac = Macaddr.of_host_id (s + (10 * m));
            sender_ip = pool_ip s;
            target_mac = Macaddr.of_host_id tg;
            target_ip = pool_ip tg;
          })
      (quad bool ip ip (0 -- 2))
  in
  let mutate b (pos, v) =
    let b = Bytes.copy b in
    if pos < Bytes.length b then Bytes.set b pos (Char.chr v);
    b
  in
  let mutated =
    valid >>= fun b ->
    list_size (0 -- 3) (pair (0 -- 27) (0 -- 255)) >>= fun ms ->
    frequency [ (4, return Packet.size); (1, 0 -- Packet.size) ]
    >|= fun keep -> Bytes.sub (List.fold_left mutate b ms) 0 keep
  in
  frequency
    [
      (1, map Bytes.of_string (string_size (0 -- 40)));
      (4, mutated);
      (3, from_cached);
    ]

(* [input_bytes] against decode + [input]; a third resolver takes each
   input as the kernel netisr does, through [try_input_bytes] first and
   [input_bytes] only when that declines, so a decline must leave no
   trace. *)
let prop_input_bytes_equals_decode =
  let print (cached, pending, inputs) =
    Printf.sprintf "cached=[%s] pending=[%s] inputs=[%s]"
      (String.concat ";" (List.map string_of_int cached))
      (String.concat ";" (List.map string_of_int pending))
      (String.concat "; "
         (List.map
            (fun (d, b) -> Printf.sprintf "+%d %S" d (Bytes.to_string b))
            inputs))
  in
  QCheck.Test.make
    ~name:"resolver: bytes-level input equals decode + input" ~count:500
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (list_size (0 -- 3) (2 -- 5))
           (list_size (0 -- 2) (2 -- 5))
           (list_size (1 -- 12)
              (pair
                 (frequency [ (4, 0 -- 60); (1, 90 -- 120) ])
                 gen_arp_input))))
    (fun (cached, pending, inputs) ->
      let a = make_twin ~cached ~pending and b = make_twin ~cached ~pending in
      let c = make_twin ~cached ~pending in
      List.for_all
        (fun (dt, bytes) ->
          let len = Bytes.length bytes in
          List.iter
            (fun tw ->
              Psd_sim.Engine.run_until tw.eng (Psd_sim.Engine.now tw.eng + dt))
            [ a; b; c ];
          Resolver.input_bytes a.res bytes ~off:0 ~len;
          (match Packet.decode bytes ~off:0 ~len with
          | Ok p -> Resolver.input b.res p
          | Error _ -> ());
          if not (Resolver.try_input_bytes c.res bytes ~off:0 ~len) then
            Resolver.input_bytes c.res bytes ~off:0 ~len;
          observe a = observe b && observe c = observe b)
        inputs)

let () =
  Alcotest.run "psd_arp"
    [
      ( "packet",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "rejects" `Quick test_packet_rejects;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "expiry" `Quick test_cache_expiry;
          Alcotest.test_case "notification" `Quick test_cache_notification;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "query/reply" `Quick test_resolve_query_reply;
          Alcotest.test_case "cache hit" `Quick
            test_resolve_cache_hit_no_traffic;
          Alcotest.test_case "timeout" `Quick test_resolve_timeout;
          Alcotest.test_case "shared query" `Quick
            test_concurrent_resolutions_share_query;
          Alcotest.test_case "learning" `Quick
            test_request_triggers_reply_and_learning;
          Alcotest.test_case "reply loss retries" `Quick
            test_reply_loss_retries;
          Alcotest.test_case "re-resolved inside the retry interval" `Quick
            test_rearm_after_learn;
          QCheck_alcotest.to_alcotest prop_input_bytes_equals_decode;
        ] );
    ]
