(* Reports every [val] exported by a [.mli] under [ROOT/lib] that no
   program code outside its own module refers to, unless the allowlist
   below names it with a reason. Program code is every [.ml] under
   [ROOT/lib], [ROOT/bin], [ROOT/bench], [ROOT/perfbench] and
   [ROOT/examples]; tests do not count, so an export only a test uses
   needs an entry. It also reports stale entries: names no longer
   exported, or referenced by program code after all.

   A reference to [M.name], from any .ml but [M]'s own, is one of
   - a path ending in [M.name] ([Psd_util.Ring.push], [Ring.push]);
   - [X.name] where the file binds [module X = ...M] (or [let module]);
   - a bare [name] in a file that opens [M] anywhere ([open M],
     [let open M], [M.( ... )], [M.{ ... }], [M.[ ... ]]);
   - any [name] of an [M] the file includes ([include M]), packs
     ([(module M)]) or passes to a functor ([F (M)]).
   Modules are keyed by name alone, so both [Segment]s share their
   references, and an open counts for the whole file, not just its
   scope. Both make the guard miss some dead exports, never flag a
   used one. It also skips vals inside nested signatures
   ([Engine.Task]).

   Usage: [surface_guard [-no-allowlist] ROOT/lib]. Paths are printed
   relative to ROOT. *)

open Lint_tokens

(* "Module.name", reason. The reasons fall in a few kinds: reference
   semantics a test diffs the fast path against; a counter or gauge
   only tests read; a call of a modelled interface (BSD sockets, Mach
   tasks, the paper's mechanisms) that tests exercise but no workload
   makes yet; a printer or constant that tests build messages and
   expectations from. *)
let allowlist =
  [ (* reference semantics *)
    ("Vm.run", "reference semantics the compiled and flat filters are diffed against");
    ("Compile.exec", "the compiled filter over a view, diffed against Vm.run");
    ("Asm.assemble", "result form of the assembler; tests feed it bad programs");
    ("Mailbox.recv", "reference semantics Mailbox.serve is diffed against");
    ("Mbuf.copy_range", "reference copy the chain-view properties diff against");
    ("Engine.run", "single-engine run loop the tests drive; programs run Shard");
    ("Engine.run_until", "single-engine bounded run the tests drive");
    ("Shard.run", "unbounded sharded run the tests drive; programs run windows");
    ("Wheel.insert", "plain insert the wheel tests drive; the engine uses arm");
    ("Ttcp.verify_loan", "loaned-view checker a property feeds corrupt bytes");
    (* counters and gauges only tests read *)
    ("Cache.entries", "ARP cache contents only tests inspect");
    ("Cache.size", "ARP cache gauge only tests read");
    ("Resolver.pending", "unresolved-packet gauge only tests read");
    ("Netstack.frames_in", "per-stack frame counter only tests read");
    ("Portalloc.count", "ports-in-use gauge only tests read");
    ("Router.forwarded", "gateway counter only tests read");
    ("Router.dropped_ttl", "gateway counter only tests read");
    ("Icmp.stats", "ICMP counters only tests read");
    ("Reass.pending", "reassembly gauge only tests read");
    ("Reass.dropped_inconsistent", "reassembly counter only tests read");
    ("Route.entries", "routing table contents only tests inspect");
    ("Route.generation", "route-change counter only tests read");
    ("Netdev.tx_blocked", "egress-limiter counter only tests read");
    ("Netdev.filters", "installed filter set the filter-order property reads");
    ("Nicpipe.segs", "NIC pipeline counter only tests read");
    ("Nicpipe.doorbells", "NIC pipeline counter only tests read");
    ("Nicpipe.completions", "NIC pipeline counter only tests read");
    ("Pktchan.queued", "delivery-ring gauge only tests read");
    ("Pktchan.dropped", "ring-overflow counter only tests read");
    ("Pktchan.wakeups", "wakeup counter, the SHM batching observable tests read");
    ("Pktchan.delivered", "delivery counter only tests read");
    ("Cpu.busy_time", "CPU busy counter only tests read");
    ("Engine.alive", "live-fiber gauge tests read to detect deadlock");
    ("Mailbox.length", "queue gauge only tests read");
    ("Shard.rounds", "synchronisation-round counter only tests read");
    ("Shard.posted", "cross-shard message counter only tests read");
    ("Wheel.active", "node state only the wheel tests read");
    ("Wheel.is_empty", "wheel gauge only the wheel tests read");
    ("Dgramq.length", "datagram queue gauge only tests read");
    ("Sockbuf.space", "free-space gauge only tests read");
    ("Heap.size", "heap gauge only the heap properties read");
    ("Heap.is_empty", "heap gauge only the heap properties read");
    ("Tcp.rcv_buffered", "receive-queue gauge only tests read");
    ("Tcp.local_port", "PCB field the migration test checks survives");
    ("Task.id", "Mach task identity only the task tests read");
    ("Task.parent", "Mach task tree only the task tests read");
    ("Task.alive", "Mach task state only the task tests read");
    (* calls of a modelled interface no workload makes yet *)
    ("Sockets.try_stream", "typed-error socket creation; tests check the server's text");
    ("Sockets.try_dgram", "typed-error socket creation; tests check the server's text");
    ("Sockets.set_nonblocking", "BSD call the conformance tests exercise");
    ("Sockets.shutdown", "BSD call the conformance tests exercise");
    ("Sockets.readable", "select-style readiness the conformance tests exercise");
    ("Sockbuf.try_read", "non-blocking read the sockbuf tests exercise");
    ("Sockbuf.try_read_loan", "non-blocking loaned read the sockbuf tests exercise");
    ("Dgramq.try_recv", "non-blocking receive the datagram queue tests exercise");
    ("Cond.wait_timeout", "timed wait the condition tests exercise");
    ("Mailbox.recv_timeout", "timed receive the mailbox tests exercise");
    ("Tcp.set_keepalive", "SO_KEEPALIVE, exercised by the keepalive tests");
    ("Task.fork", "Mach fork, exercised by the task tests");
    ("Portalloc.reserve", "claim of a named port the port-space tests exercise");
    ("Netdev.attach_egress", "paper section 3.4 egress limiter, exercised by test/extensions");
    ("Icmp.ping", "ICMP echo, exercised by the ping tests");
    ("Icmp.on_reply", "ICMP echo-reply hook the ping tests install");
    ("Ctx.account", "time attribution without CPU the cost tests check");
    (* printers, codecs and constants tests build expectations from *)
    ("Tcp.pp_state", "debugging printer tests format failures with");
    ("Segment.pp_decode_error", "debugging printer tests format failures with");
    ("Addr.to_string", "printer tests build expected text with");
    ("Icmp.encode", "ICMP codec the tests build messages with");
    ("Icmp.decode", "ICMP codec the tests check round trips with");
    ("Icmp.code_port_unreachable", "ICMP code the unreachable tests send");
    ("Frame.dst", "header accessor tests decode frames with");
    ("Frame.src", "header accessor tests decode frames with");
    ("Macaddr.equal", "equality tests compare decoded addresses with");
    ("Seq.in_window", "sequence-space predicate the seq tests check");
    ("Mbuf.mlen", "mbuf layout constant the cluster tests size against");
    ("Mbuf.default_headroom", "mbuf layout constant the cluster tests size against");
    ("Mbuf.seg_count", "chain shape only the mbuf tests read");
    ("Mbuf.is_empty", "chain state only the mbuf tests read");
    ("Config.ultrix_kernel", "Table 2 configuration tests run directly");
    ("Config.bsd386_kernel", "Table 2 configuration tests run directly");
    ("Config.bnr2ss_server", "Table 2 configuration tests run directly");
    ("Config.library_newapi_ipc", "Table 3 configuration tests run directly");
    ("Config.library_newapi_shm", "Table 3 configuration tests run directly") ]

let program_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let module_of file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let rec files_with suffix dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files_with suffix p
           else if Filename.check_suffix f suffix then [ p ]
           else [])

let read file = In_channel.with_open_bin file In_channel.input_all

(* Top-level vals of an interface, with their lines. *)
let exports toks =
  let rec go depth = function
    | Ident (("sig" | "struct" | "object" | "begin"), _) :: rest ->
      go (depth + 1) rest
    | Ident ("end", _) :: rest -> go (depth - 1) rest
    | Ident ("val", _) :: Ident (name, l) :: rest when depth = 0 ->
      (name, l) :: go depth rest
    | _ :: rest -> go depth rest
    | [] -> []
  in
  go 0 toks

(* The last module name of the dotted path at the head of the tokens,
   and whether the path is all there is up to a [')']. *)
let rec path_end = function
  | Ident (m, _) :: Sym ('.', _) :: (Ident (n, _) :: _ as rest)
    when is_upper m && is_upper n ->
    path_end rest
  | Ident (m, _) :: rest when is_upper m ->
    Some (m, match rest with Sym (')', _) :: _ -> true | _ -> false)
  | _ -> None

let path_module toks = Option.map fst (path_end toks)

type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (* module, name *)
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
  whole : (string, unit) Hashtbl.t;  (* included, packed, functor argument *)
}

let uses toks =
  let aliases = Hashtbl.create 8 in
  let rec scan_aliases = function
    | Ident ("module", _) :: Ident (x, _) :: Sym ('=', _) :: rest ->
      Option.iter (Hashtbl.replace aliases x) (path_module rest);
      scan_aliases rest
    | _ :: rest -> scan_aliases rest
    | [] -> ()
  in
  scan_aliases toks;
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let u =
    { qualified = Hashtbl.create 64; opened = Hashtbl.create 8;
      bare = Hashtbl.create 256; whole = Hashtbl.create 4 }
  in
  let rec go = function
    | Ident ("open", _) :: rest ->
      let rest = match rest with Sym ('!', _) :: r -> r | r -> r in
      Option.iter
        (fun m -> Hashtbl.replace u.opened (resolve m) ())
        (path_module rest);
      go rest
    | Ident ("include", _) :: rest
    | Sym ('(', _) :: Ident ("module", _) :: rest ->
      Option.iter
        (fun m -> Hashtbl.replace u.whole (resolve m) ())
        (path_module rest);
      go rest
    | Sym ('(', _) :: rest ->
      (match path_end rest with
       | Some (m, true) -> Hashtbl.replace u.whole (resolve m) ()
       | _ -> ());
      go rest
    | Ident (m, _) :: Sym ('.', _) :: Ident (n, _) :: rest
      when is_upper m && not (is_upper n) ->
      Hashtbl.replace u.qualified (resolve m, n) ();
      go rest
    | Ident (m, _) :: Sym ('.', _) :: (Sym (('(' | '{' | '['), _) :: _ as rest)
      when is_upper m ->
      Hashtbl.replace u.opened (resolve m) ();
      go rest
    | Ident (n, _) :: rest ->
      if not (is_upper n) then Hashtbl.replace u.bare n ();
      go rest
    | Sym _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  u

let refers u (m, name) =
  Hashtbl.mem u.qualified (m, name)
  || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare name)
  || Hashtbl.mem u.whole m

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let allowlist, args =
    match args with
    | "-no-allowlist" :: rest -> [], rest
    | rest -> allowlist, rest
  in
  let root = Filename.dirname (match args with d :: _ -> d | [] -> "lib") in
  let relative file =
    let prefix = Filename.concat root "" in
    let n = String.length prefix in
    if String.starts_with ~prefix file then
      String.sub file n (String.length file - n)
    else file
  in
  let programs =
    List.concat_map
      (fun d ->
        List.map
          (fun f -> (f, uses (tokens (read f))))
          (files_with ".ml" (Filename.concat root d)))
      program_dirs
  in
  let used_outside mli key =
    let own = Filename.remove_extension mli ^ ".ml" in
    List.exists (fun (f, u) -> f <> own && refers u key) programs
  in
  let vals =
    List.concat_map
      (fun mli ->
        let m = module_of mli in
        List.map (fun (name, l) -> (mli, l, m, name)) (exports (tokens (read mli))))
      (files_with ".mli" (Filename.concat root "lib"))
  in
  let failed = ref false in
  let report fmt =
    failed := true;
    Printf.printf fmt
  in
  List.iter
    (fun (mli, l, m, name) ->
      let key = m ^ "." ^ name in
      if (not (List.mem_assoc key allowlist)) && not (used_outside mli (m, name))
      then
        report
          "%s:%d: %s is used nowhere outside its module; delete it, or \
           allowlist it with a reason\n"
          (relative mli) l key)
    vals;
  List.iter
    (fun (key, _) ->
      match
        List.filter (fun (_, _, m, name) -> m ^ "." ^ name = key) vals
      with
      | [] -> report "allowlist: %s is no longer exported; drop the entry\n" key
      | vs ->
        if List.exists (fun (mli, _, m, name) -> used_outside mli (m, name)) vs
        then
          report
            "allowlist: %s is used outside its module now; drop the entry\n"
            key)
    allowlist;
  if !failed then exit 1
