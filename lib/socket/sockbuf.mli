(** Socket receive buffer: a bounded byte-stream queue between a protocol
    stack (producer) and application readers (consumers), with EOF and
    error propagation — the [so_rcv] of BSD sockets. *)

type t

val create : Psd_sim.Engine.t -> ?hiwat:int -> unit -> t
(** [hiwat] defaults to 24 KB — the best DECstation receive-buffer size
    reported in the paper's Table 2 for most configurations. *)

val cc : t -> int
(** Bytes currently buffered. *)

val space : t -> int
(** [hiwat - cc - loaned], floored at zero: bytes out on loan still
    occupy the buffer until returned. *)

val loaned : t -> int
(** Bytes handed out by {!read_loan} and not yet {!loan_return}ed. *)

val append : t -> Psd_mbuf.Mbuf.t -> unit
(** Producer side; never blocks (TCP's advertised window, not this
    buffer, provides backpressure). Wakes blocked readers. *)

val set_eof : t -> unit
(** No more data will arrive (peer FIN). Wakes readers. *)

val set_error : t -> string -> unit
(** Fail all pending and future reads. *)

val read : t -> max:int -> (Psd_mbuf.Mbuf.t, [ `Eof | `Error of string ]) result
(** Blocking read: waits for data, then returns up to [max] bytes.
    [`Eof] only after all buffered data has been drained. Must be called
    from a fiber. *)

val try_read : t -> max:int -> (Psd_mbuf.Mbuf.t, [ `Empty | `Eof | `Error of string ]) result
(** Non-blocking variant. *)

val read_loan :
  t -> max:int -> (Psd_mbuf.Mbuf.t, [ `Eof | `Error of string ]) result
(** NEWAPI drain: like {!read} — the result is the queued segment views
    themselves, never a flattened copy — but the bytes remain charged
    against [hiwat] until the borrower calls {!loan_return}, so buffer
    space is reclaimed deterministically at return time, not at read
    time. *)

val try_read_loan :
  t -> max:int -> (Psd_mbuf.Mbuf.t, [ `Empty | `Eof | `Error of string ]) result
(** Non-blocking variant of {!read_loan}. *)

val loan_return : t -> int -> unit
(** [loan_return t n] gives back [n] loaned bytes, releasing their
    buffer space (and notifying change hooks). Raises [Invalid_argument]
    if [n] is negative or exceeds the outstanding loan. *)

val readable : t -> bool
(** Data, EOF or an error is available — the [select] readability test. *)

val on_change : t -> (unit -> unit) -> unit
(** Callback after every state change (data appended, EOF, error, data
    consumed) — drives the cooperative select protocol. *)

val eof : t -> bool

val error : t -> string option
(** The failure installed by {!set_error}, if any. *)

val has_waiters : t -> bool
(** A reader is blocked in {!read} — the producer should charge a
    scheduler wakeup when it appends. *)
