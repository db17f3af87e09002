(** Session-level encryption over a stream socket.

    Paper Section 3.4: "Application-level protocols can be used with
    session-level encryption software, provided that session keys are
    confined to the application's address space." That is precisely what
    this module demonstrates: keys live in the application, the protocol
    library below sees only ciphertext, and the operating-system server
    is never involved on the data path.

    The cipher is a toy (a splitmix64 keystream XOR with a per-record
    integrity tag) — the point is the architecture, not the
    cryptography; do not reuse it for anything real. Records are
    length-prefixed on the wire. *)

type t

val client :
  Sockets.t -> psk:string -> (t, string) result
(** Run the initiator side of the nonce-exchange handshake on a
    connected stream socket. Both sides must share [psk]. *)

val server : Sockets.t -> psk:string -> (t, string) result

val send : t -> string -> (unit, string) result
(** Encrypt and send one record. *)

val recv : t -> (string, string) result
(** Receive and decrypt one record; [""] on clean EOF. A record that
    fails its integrity check (wrong key, corruption) is an error. *)

val close : t -> unit
