open Psd_core

type proto = Tcp | Udp

type result = {
  config : Psd_cost.Config.t;
  proto : proto;
  size : int;
  rounds : int;
  rtt_ms : float;
  na : bool;
}

let na_cell config proto size =
  config.Psd_cost.Config.large_tcp_bug && proto = Tcp && size > 512

(* ARP resolution, the handshake and slow start happen in the warm-up *)
let warmup = 8

let run ?plat ?(machine = Paper.Dec) ?(rounds = 200) ?breakdown ~proto ~size
    config =
  if na_cell config proto size then
    { config; proto; size; rounds = 0; rtt_ms = nan; na = true }
  else begin
    let plat = Option.value plat ~default:(Paper.platform machine) in
    let eng = Psd_sim.Engine.create ~seed:11 () in
    let segment = Psd_link.Segment.create eng () in
    let sys_a =
      System.create ~eng ~segment ~config ~plat ~addr:"10.0.0.1"
        ~name:"client" ()
    in
    let sys_b =
      System.create ~eng ~segment ~config ~plat ~addr:"10.0.0.2"
        ~name:"server" ()
    in
    let stats = Psd_util.Stats.create () in
    let payload = String.make size 'p' in
    (* echo server *)
    let sapp = System.app sys_b ~name:"echo" in
    Psd_sim.Engine.spawn eng ~name:"echo" (fun () ->
        match proto with
        | Udp ->
          let s = Sockets.dgram sapp in
          (match Sockets.bind s ~port:7 () with
          | Ok _ -> ()
          | Error e -> failwith e);
          let rec loop () =
            match Sockets.recvfrom s ~max:65536 with
            | Ok (d, Some src) ->
              (match Sockets.send s ~dst:src d with
              | Ok _ -> ()
              | Error e -> failwith e);
              loop ()
            | Ok (_, None) -> failwith "no source"
            | Error e -> failwith e
          in
          loop ()
        | Tcp -> (
          let s = Sockets.stream sapp in
          (match Sockets.bind s ~port:7 () with
          | Ok _ -> ()
          | Error e -> failwith e);
          (match Sockets.listen s () with
          | Ok () -> ()
          | Error e -> failwith e);
          match Sockets.accept s with
          | Error e -> failwith e
          | Ok c ->
            Sockets.set_nodelay c true;
            (* echo exactly size-byte messages *)
            let rec loop () =
              let rec read_msg acc =
                if String.length acc >= size then acc
                else
                  match Sockets.recv c ~max:size with
                  | Ok "" -> acc
                  | Ok d -> read_msg (acc ^ d)
                  | Error _ -> acc
              in
              let msg = read_msg "" in
              if String.length msg = size then begin
                (match Sockets.send c msg with
                | Ok _ -> ()
                | Error _ -> ());
                loop ()
              end
            in
            loop ()));
    (* client *)
    let capp = System.app sys_a ~name:"protolat" in
    let finished = ref false in
    Psd_sim.Engine.spawn eng ~name:"protolat" (fun () ->
        let s, recv_reply =
          match proto with
          | Udp ->
            let s = Sockets.dgram capp in
            (match Sockets.bind s () with
            | Ok _ -> ()
            | Error e -> failwith e);
            (match Sockets.connect s (System.addr sys_b) 7 with
            | Ok () -> ()
            | Error e -> failwith e);
            (s, fun () -> ignore (Result.get_ok (Sockets.recv s ~max:65536)))
          | Tcp ->
            let s = Sockets.stream capp in
            (match Sockets.connect s (System.addr sys_b) 7 with
            | Ok () -> ()
            | Error e -> failwith e);
            Sockets.set_nodelay s true;
            ( s,
              fun () ->
                let rec read_msg got =
                  if got < size then
                    match Sockets.recv s ~max:size with
                    | Ok "" -> failwith "eof"
                    | Ok d -> read_msg (got + String.length d)
                    | Error e -> failwith e
                in
                read_msg 0 )
        in
        let round () =
          let t0 = Psd_sim.Engine.now eng in
          (match Sockets.send s payload with
          | Ok _ -> ()
          | Error e -> failwith ("send: " ^ e));
          recv_reply ();
          Psd_sim.Engine.now eng - t0
        in
        for _ = 1 to warmup do
          ignore (round ())
        done;
        (* attach the breakdown probe only for measured rounds *)
        (match breakdown with
        | Some b ->
          System.set_breakdown sys_a (Some b)
        | None -> ());
        for _ = 1 to rounds do
          Psd_util.Stats.add stats (float_of_int (round ()))
        done;
        System.set_breakdown sys_a None;
        finished := true);
    Psd_sim.Engine.run_for eng (Psd_sim.Time.sec (60 + (rounds / 5)));
    if not !finished then
      failwith
        (Printf.sprintf "protolat[%s]: did not complete"
           config.Psd_cost.Config.label);
    {
      config;
      proto;
      size;
      rounds;
      rtt_ms = Psd_util.Stats.mean stats /. 1e6;
      na = false;
    }
  end
