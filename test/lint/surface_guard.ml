(* Reports every [val] exported by a [.mli] under [ROOT/lib] that no
   program code outside its own module refers to, unless the allowlist
   below names it with a reason. Program code is every [.ml] under
   [ROOT/lib], [ROOT/bin], [ROOT/bench], [ROOT/perfbench] and
   [ROOT/examples]; tests do not count, so an export only a test uses
   needs an entry. The vals of a nested [module X : sig ... end] count
   as [M.X.name] ([Engine.Task.start]), referenced as [X.name].

   It also reports every optional label [?l] of a referenced val that
   no program code passes ([~l], [~l:v], [?l] or [?l:v] at the top
   level of an application the val heads; calls in the val's own
   module count, its definition does not), unless the label allowlist
   names ["M.name ?l"] with a reason: an option stays only when a
   caller sets it. It also reports stale entries of both lists: names
   or labels no longer declared, or used by program code after all.

   A module is keyed by its library path: [Psd_link.Segment] and
   [Psd_tcp.Segment] are two modules, and so are [Psd_mach.Task] and
   [Psd_sim.Engine.Task]. A library's name comes from the [(name ...)]
   of its directory's dune file (the directory name without one). A
   module path in a file resolves, after the file's aliases, as
   - itself, when it starts with a library ([Psd_util.Heap]);
   - else under the file's own module, its own library (a library's
     modules name each other unqualified) and the libraries it opens
     ([open Psd_x], [let open Psd_x], [Psd_x.( ... )]), taking every
     one of those that declares it;
   - else as that module of every library that declares one.
   A reference to [M.name], from any .ml but [M]'s own, is one of
   - a path resolving to [M], followed by [.name];
   - [X.name] where the file binds [module X = P] (or [let module]) and
     [P] resolves to [M];
   - a bare [name] in a file that opens [M] anywhere ([open M],
     [let open M], [M.( ... )], [M.{ ... }], [M.[ ... ]]);
   - any [name] of an [M] the file includes ([include M]), packs
     ([(module M)]) or passes to a functor ([F (M)]).
   An open or alias counts for the whole file, not just its scope, and
   an unresolved path counts for every module it could name. Both make
   the guard miss some dead exports or unset labels, never flag a used
   one.

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
    ("Shard.rounds", "synchronisation-round counter only tests read");
    ("Shard.posted", "cross-shard message counter only tests read");
    ("Wheel.active", "node state only the wheel tests read");
    ("Wheel.is_empty", "wheel gauge only the wheel tests read");
    ("Dgramq.length", "datagram queue gauge only tests read");
    ("Dgramq.dropped", "overflow count only the datagram queue tests read");
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
    ("Sockbuf.try_read_loan", "non-blocking loaned read the sockbuf tests exercise");
    ("Sockbuf.on_change", "change hook the sockbuf tests install; stacks tell their select condition at delivery");
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

(* "Module.name ?label", reason: an optional argument only tests set.
   The kinds: a timescale a test shrinks to see a timer fire; a bound a
   test shrinks to overflow it; a reference mode a differential diffs
   against; an argument of a modelled interface no workload passes yet;
   a shorter run of an experiment whose direction a test checks. *)
let label_allowlist =
  [ (* timescales *)
    ("Tcp.create ?msl_ns", "the TCP harness uses a 50 ms MSL");
    ("Tcp.create ?rto_min_ns", "the TCP harness uses a 20 ms minimum RTO");
    ("Tcp.create ?rto_init_ns", "the TCP harness uses a 40 ms initial RTO");
    ("Tcp.create ?keep_idle_ns", "the keepalive tests probe after 100 ms idle");
    ("Tcp.create ?keep_interval_ns", "the keepalive tests probe every 50 ms");
    ("Tcp.create ?keep_max_probes", "the keepalive tests give up after 3 probes");
    ("Cache.create ?ttl_ns", "the ARP expiry tests age an entry out in 100 ms");
    ("Resolver.create ?retries", "the ARP retry tests count a short query chain");
    ("Resolver.create ?retry_interval_ns", "the ARP retry tests query every 10-50 ms");
    ("Reass.create ?timeout_ns", "the reassembly-timeout tests expire a datagram in 100 ms");
    (* bounds *)
    ("Sockbuf.create ?hiwat", "the sockbuf overflow tests fill a 10-byte buffer");
    ("Dgramq.create ?max_queued", "the datagram queue overflow test fills two slots");
    ("Mbuf.of_bytes ?headroom", "the prepend-overflow test starts with 2 bytes of headroom");
    (* reference modes *)
    ("Tcp.create ?pcb_pool", "pcb_pool:0 is the unpooled reference of the pooled/unpooled differential");
    ("Shard.run ?domains", "domains:false is the sequential reference the domain runs are diffed against");
    (* modelled interfaces *)
    ("Sockets.select ?timeout_ns", "select with a timeout, exercised by the conformance tests");
    ("Icmp.ping ?id", "the ping test checks a reply echoes the request's identifier");
    ("Icmp.ping ?seq", "the ping test checks a reply echoes the request's sequence number");
    ("Ip.output ?ttl", "the router test sends a TTL-1 datagram to see it dropped");
    ("Ip.output ?dont_frag", "the don't-fragment test sees an oversize packet refused");
    (* shorter experiment runs *)
    ("Ablation.sync_weight ?rounds", "the causality test runs 60 round trips, not 300");
    ("Ablation.bufsize_sweep ?sizes_kb", "the monotonicity test sweeps three buffer sizes");
    ("Ablation.migration_cost ?conns", "the amortisation test runs 8 connections, not 20");
    ("Ablation.migration_cost ?bytes_per_conn", "the amortisation test sends 512 B per connection");
    ("Scale.run ?fault", "the scale chaos soaks inject faults into the farm") ]

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

(* Interface keywords that end a [val]'s type. *)
let item_start = function
  | "val" | "type" | "module" | "end" | "exception" | "include" | "open"
  | "external" | "class" ->
    true
  | _ -> false

(* The optional labels of a [val]'s type: [?label:] up to the next item. *)
let rec optionals = function
  | Sym ('?', _) :: Ident (l, _) :: Sym (':', _) :: rest -> l :: optionals rest
  | Ident (k, _) :: _ when item_start k -> []
  | _ :: rest -> optionals rest
  | [] -> []

(* The vals of an interface, with their lines and optional labels:
   top-level ones with an empty path, and those of a nested
   [module X : sig ... end] with path [[X]]. *)
let exports toks =
  let rec go path depth = function
    | Ident ("module", _) :: Ident (x, _) :: Sym (':', _)
      :: Ident ("sig", _) :: rest
      when depth = List.length path ->
      go (path @ [ x ]) (depth + 1) rest
    | Ident (("sig" | "struct" | "object" | "begin"), _) :: rest ->
      go path (depth + 1) rest
    | Ident ("end", _) :: rest ->
      let path =
        if depth = List.length path && path <> [] then
          List.filteri (fun i _ -> i < depth - 1) path
        else path
      in
      go path (depth - 1) rest
    | Ident ("val", _) :: Ident (name, l) :: rest
      when depth = List.length path ->
      (path, name, l, optionals rest) :: go path depth rest
    | _ :: rest -> go path depth rest
    | [] -> []
  in
  go [] 0 toks

(* The dotted module path at the head of the tokens ([[A; B]] of
   [A.B.x], [A.B)] or [A.B.( ... )]), and the tokens after it. *)
let rec module_path = function
  | Ident (m, _) :: Sym ('.', _) :: (Ident (n, _) :: _ as rest)
    when is_upper m && is_upper n ->
    let p, after = module_path rest in
    (m :: p, after)
  | Ident (m, _) :: rest when is_upper m -> ([ m ], rest)
  | toks -> ([], toks)

(* Keywords that end the application a function name heads. *)
let ends_application = function
  | "in" | "let" | "and" | "then" | "else" | "with" | "do" | "done" | "end"
  | "match" | "if" | "fun" | "function" | "when" | "try" | "val" | "type"
  | "module" | "open" | "of" | "mod" | "land" | "lor" | "lxor" | "lsl"
  | "lsr" | "asr" | "or" ->
    true
  | _ -> false

(* The labels ([~l] or [?l], with or without an argument) passed at the
   top level of the application that begins at the head of the tokens:
   up to a keyword, an infix or separator symbol, or a closing bracket
   at depth 0 (the lexer leaves digits as symbols). Labels inside a nested bracket belong to another call. *)
let passed toks =
  let rec go depth = function
    | (Sym (('~' | '?'), _) :: Ident (l, _) :: rest) when depth = 0 ->
      l :: go depth rest
    | Sym (('(' | '[' | '{'), _) :: rest -> go (depth + 1) rest
    | Sym ((')' | ']' | '}'), _) :: rest ->
      if depth = 0 then [] else go (depth - 1) rest
    | Sym (c, _) :: rest ->
      if depth > 0 || String.contains ":.'!#0123456789" c then go depth rest
      else []
    | Ident (k, _) :: rest ->
      if depth = 0 && ends_application k then [] else go depth rest
    | [] -> []
  in
  go 0 toks

type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (* module, name *)
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
  whole : (string, unit) Hashtbl.t;  (* included, packed, functor argument *)
  qualified_labels : (string * string * string, unit) Hashtbl.t;
  bare_labels : (string * string, unit) Hashtbl.t;  (* name, label *)
}

(* What the module paths of one file can mean. *)
type scope = {
  libs : string list;  (* every library *)
  known : (string, unit) Hashtbl.t;  (* every declared module's key *)
  own : string list;  (* the file's own module and library, if in one *)
}

let binds = function
  | "let" | "and" | "rec" | "val" | "external" | "method" -> true
  | _ -> false

let uses sc toks =
  let aliases = Hashtbl.create 8 and lib_opens = ref [] in
  let rec scan = function
    | Ident ("module", _) :: Ident (x, _) :: Sym ('=', _) :: rest ->
      (match module_path rest with
       | [], _ -> ()
       | p, _ -> Hashtbl.replace aliases x p);
      scan rest
    | Ident ("open", _) :: rest -> (
      let rest = match rest with Sym ('!', _) :: r -> r | r -> r in
      match module_path rest with
      | [ l ], _ when List.mem l sc.libs -> lib_opens := l :: !lib_opens; scan rest
      | _ -> scan rest)
    | Ident (l, _) :: Sym ('.', _) :: Sym (('(' | '{' | '['), _) :: rest
      when List.mem l sc.libs ->
      lib_opens := l :: !lib_opens;
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan toks;
  let prefixes = sc.own @ !lib_opens in
  let declared prefixes name =
    List.filter_map
      (fun pre ->
        let key = pre ^ "." ^ name in
        if Hashtbl.mem sc.known key then Some key else None)
      prefixes
  in
  let resolve = function
    | [] -> []
    | head :: tail as p -> (
      let p =
        match Hashtbl.find_opt aliases head with Some a -> a @ tail | None -> p
      in
      let name = String.concat "." p in
      if List.mem (List.hd p) sc.libs then [ name ]
      else
        match declared prefixes name with
        | [] -> declared sc.libs name
        | keys -> keys)
  in
  let u =
    { qualified = Hashtbl.create 64; opened = Hashtbl.create 8;
      bare = Hashtbl.create 256; whole = Hashtbl.create 4;
      qualified_labels = Hashtbl.create 64; bare_labels = Hashtbl.create 64 }
  in
  let mark tbl p = List.iter (fun m -> Hashtbl.replace tbl m ()) (resolve p) in
  let rec go prev = function
    | Ident ("open", _) :: rest ->
      let rest = match rest with Sym ('!', _) :: r -> r | r -> r in
      mark u.opened (fst (module_path rest));
      go "open" rest
    | Ident ("include", _) :: rest
    | Sym ('(', _) :: Ident ("module", _) :: rest ->
      mark u.whole (fst (module_path rest));
      go "" rest
    | Sym ('(', _) :: rest ->
      (match module_path rest with
       | p, Sym (')', _) :: _ -> mark u.whole p
       | _ -> ());
      go "" rest
    | Ident (m, _) :: _ as toks when is_upper m -> (
      match module_path toks with
      | p, Sym ('.', _) :: Ident (n, _) :: rest when not (is_upper n) ->
        List.iter
          (fun m ->
            Hashtbl.replace u.qualified (m, n) ();
            List.iter
              (fun l -> Hashtbl.replace u.qualified_labels (m, n, l) ())
              (passed rest))
          (resolve p);
        go n rest
      | p, (Sym ('.', _) :: Sym (('(' | '{' | '['), _) :: _ as rest) ->
        mark u.opened p;
        go "" rest
      | _, rest -> go "" rest)
    | Ident (n, _) :: rest ->
      Hashtbl.replace u.bare n ();
      if not (binds prev) then
        List.iter (fun l -> Hashtbl.replace u.bare_labels (n, l) ()) (passed rest);
      go n rest
    | Sym _ :: rest -> go "" rest
    | [] -> ()
  in
  go "" toks;
  u

let refers u (m, name) =
  Hashtbl.mem u.qualified (m, name)
  || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare name)
  || Hashtbl.mem u.whole m

(* Whether the file passes [label] to [m.name]: qualified, or bare where
   [m] is open, included, or the file's own module ([own]). *)
let passes ~own u (m, name) label =
  Hashtbl.mem u.qualified_labels (m, name, label)
  || ((own || Hashtbl.mem u.opened m || Hashtbl.mem u.whole m)
      && Hashtbl.mem u.bare_labels (name, label))

(* The index of the first [sub] in [s] at or after [i]. *)
let rec find_sub s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_sub s sub (i + 1)

(* The library a directory under lib/ holds: the [(name ...)] of its
   dune file, or the directory's name. *)
let library_name dir =
  let dune = Filename.concat dir "dune" in
  let by_dir = String.capitalize_ascii (Filename.basename dir) in
  if not (Sys.file_exists dune) then by_dir
  else
    let s = read dune in
    match find_sub s "(name " 0 with
    | None -> by_dir
    | Some i ->
      let i = i + String.length "(name " in
      let j = String.index_from s i ')' in
      String.capitalize_ascii (String.trim (String.sub s i (j - i)))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let allowlist, label_allowlist, args =
    match args with
    | "-no-allowlist" :: rest -> [], [], rest
    | rest -> allowlist, label_allowlist, rest
  in
  let root = Filename.dirname (match args with d :: _ -> d | [] -> "lib") in
  let relative file =
    let prefix = Filename.concat root "" in
    let n = String.length prefix in
    if String.starts_with ~prefix file then
      String.sub file n (String.length file - n)
    else file
  in
  let lib_dir = Filename.concat root "lib" in
  (* the library of a file under lib/: that of its top directory there *)
  let library_of file =
    let prefix = Filename.concat lib_dir "" in
    if not (String.starts_with ~prefix file) then None
    else
      let below = String.sub file (String.length prefix)
          (String.length file - String.length prefix) in
      match String.index_opt below '/' with
      | Some i -> Some (library_name (Filename.concat lib_dir (String.sub below 0 i)))
      | None -> None
  in
  (* (mli, line, reference key, printed name, labels) *)
  let vals =
    List.concat_map
      (fun mli ->
        let m = module_of mli in
        let lib = Option.value (library_of mli) ~default:"" in
        List.map
          (fun (path, name, l, labels) ->
            (mli, l, (String.concat "." (lib :: m :: path), name),
             String.concat "." ((m :: path) @ [ name ]), labels))
          (exports (tokens (read mli))))
      (files_with ".mli" lib_dir)
  in
  let known = Hashtbl.create 64 in
  List.iter (fun (_, _, (m, _), _, _) -> Hashtbl.replace known m ()) vals;
  let libs =
    Sys.readdir lib_dir |> Array.to_list
    |> List.filter (fun d -> Sys.is_directory (Filename.concat lib_dir d))
    |> List.map (fun d -> library_name (Filename.concat lib_dir d))
  in
  let programs =
    List.concat_map
      (fun d ->
        List.map
          (fun f ->
            let own =
              match library_of f with
              | Some lib -> [ lib ^ "." ^ module_of f; lib ]
              | None -> []
            in
            (f, uses { libs; known; own } (tokens (read f))))
          (files_with ".ml" (Filename.concat root d)))
      program_dirs
  in
  let own_ml mli = Filename.remove_extension mli ^ ".ml" in
  let used_outside mli key =
    List.exists (fun (f, u) -> f <> own_ml mli && refers u key) programs
  in
  let passed_anywhere mli key label =
    List.exists
      (fun (f, u) -> passes ~own:(f = own_ml mli) u key label)
      programs
  in
  let failed = ref false in
  let report fmt =
    failed := true;
    Printf.printf fmt
  in
  List.iter
    (fun (mli, l, key, printed, labels) ->
      if (not (List.mem_assoc printed allowlist)) && not (used_outside mli key)
      then
        report
          "%s:%d: %s is used nowhere outside its module; delete it, or \
           allowlist it with a reason\n"
          (relative mli) l printed
      else
        List.iter
          (fun label ->
            let entry = printed ^ " ?" ^ label in
            if (not (List.mem_assoc entry label_allowlist))
               && not (passed_anywhere mli key label)
            then
              report
                "%s:%d: %s is passed by no program code; make it a \
                 constant, or allowlist it with a reason\n"
                (relative mli) l entry)
          labels)
    vals;
  List.iter
    (fun (entry, _) ->
      match List.filter (fun (_, _, _, printed, _) -> printed = entry) vals with
      | [] -> report "allowlist: %s is no longer exported; drop the entry\n" entry
      | vs ->
        if List.exists (fun (mli, _, key, _, _) -> used_outside mli key) vs
        then
          report
            "allowlist: %s is used outside its module now; drop the entry\n"
            entry)
    allowlist;
  List.iter
    (fun (entry, _) ->
      let declared =
        List.concat_map
          (fun (mli, _, key, printed, labels) ->
            List.filter_map
              (fun label ->
                if printed ^ " ?" ^ label = entry then Some (mli, key, label)
                else None)
              labels)
          vals
      in
      match declared with
      | [] -> report "allowlist: %s is no longer declared; drop the entry\n" entry
      | ds ->
        if List.exists (fun (mli, key, label) -> passed_anywhere mli key label) ds
        then
          report "allowlist: %s is passed by program code now; drop the entry\n"
            entry)
    label_allowlist;
  if !failed then exit 1
