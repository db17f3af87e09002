type t = {
  sock : Sockets.t;
  tx : Psd_util.Rng.t;
  rx : Psd_util.Rng.t;
  tx_tag : Psd_util.Rng.t;
  rx_tag : Psd_util.Rng.t;
}

(* FNV-1a over a string: key material derivation (toy). *)
let fnv s =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h

let derive ~psk ~nc ~ns label = fnv (psk ^ nc ^ ns ^ label)

let xor_stream rng data =
  let b = Bytes.of_string data in
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i
      (Char.chr
         (Char.code (Bytes.get b i)
         lxor (Int64.to_int (Psd_util.Rng.next rng) land 0xff)))
  done;
  Bytes.unsafe_to_string b

let tag_of rng data =
  (* one keystream step mixed with a digest of the plaintext *)
  let k = Int64.to_int (Psd_util.Rng.next rng) land 0x3fffffff in
  (k + (fnv data land 0x3fffffff)) land 0x3fffffff

(* --- socket record helpers ------------------------------------------- *)

let send_all sock data =
  match Sockets.send sock data with
  | Ok _ -> Ok ()
  | Error e -> Error e

let recv_exact sock n =
  let buf = Buffer.create n in
  let rec go () =
    if Buffer.length buf >= n then Ok (Buffer.contents buf)
    else
      match Sockets.recv sock ~max:(n - Buffer.length buf) with
      | Ok "" -> Error `Eof
      | Ok d ->
        Buffer.add_string buf d;
        go ()
      | Error e -> Error (`Err e)
  in
  go ()

let u32_be v =
  let b = Bytes.create 4 in
  Psd_util.Codec.set_u32i b 0 v;
  Bytes.unsafe_to_string b

(* --- handshake --------------------------------------------------------- *)

let nonce sock =
  (* derive a nonce from the socket's endpoints and a per-call counter;
     the simulation's determinism is preserved *)
  let base =
    match (Sockets.local_endpoint sock, Sockets.remote_endpoint sock) with
    | Some (a, ap), Some (b, bp) ->
      Printf.sprintf "%d:%d:%d:%d" (Psd_ip.Addr.to_int a) ap
        (Psd_ip.Addr.to_int b) bp
    | _ -> "anon"
  in
  Printf.sprintf "%016x" (fnv base)

let make ~sock ~psk ~nc ~ns ~initiator =
  let dir_tx = if initiator then "c2s" else "s2c" in
  let dir_rx = if initiator then "s2c" else "c2s" in
  {
    sock;
    tx = Psd_util.Rng.create ~seed:(derive ~psk ~nc ~ns dir_tx);
    rx = Psd_util.Rng.create ~seed:(derive ~psk ~nc ~ns dir_rx);
    tx_tag = Psd_util.Rng.create ~seed:(derive ~psk ~nc ~ns (dir_tx ^ "tag"));
    rx_tag = Psd_util.Rng.create ~seed:(derive ~psk ~nc ~ns (dir_rx ^ "tag"));
  }

let client sock ~psk =
  let nc = nonce sock in
  match send_all sock nc with
  | Error e -> Error e
  | Ok () -> (
    match recv_exact sock 16 with
    | Ok ns -> Ok (make ~sock ~psk ~nc ~ns ~initiator:true)
    | Error `Eof -> Error "peer closed during handshake"
    | Error (`Err e) -> Error e)

let server sock ~psk =
  match recv_exact sock 16 with
  | Error `Eof -> Error "peer closed during handshake"
  | Error (`Err e) -> Error e
  | Ok nc -> (
    let ns = nonce sock in
    match send_all sock ns with
    | Error e -> Error e
    | Ok () -> Ok (make ~sock ~psk ~nc ~ns ~initiator:false))

(* --- records ------------------------------------------------------------ *)

let send t plaintext =
  let ct = xor_stream t.tx plaintext in
  let tag = tag_of t.tx_tag plaintext in
  let header = u32_be (String.length ct) ^ u32_be tag in
  match send_all t.sock (header ^ ct) with
  | Ok () -> Ok ()
  | Error e -> Error e

let recv t =
  match recv_exact t.sock 8 with
  | Error `Eof -> Ok "" (* clean end of stream *)
  | Error (`Err e) -> Error e
  | Ok header -> (
    let b = Bytes.of_string header in
    let len = Psd_util.Codec.get_u32i b 0 in
    let tag = Psd_util.Codec.get_u32i b 4 in
    if len > 16 * 1024 * 1024 then Error "record too large (bad key?)"
    else
      match recv_exact t.sock len with
      | Error `Eof -> Error "truncated record"
      | Error (`Err e) -> Error e
      | Ok ct ->
        let plaintext = xor_stream t.rx ct in
        if tag_of t.rx_tag plaintext <> tag then
          Error "integrity check failed (wrong key or corruption)"
        else Ok plaintext)

let close t = Sockets.close t.sock
