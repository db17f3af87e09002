(** BSD-style mbuf chains — the unit of packet memory in the stack.

    A chain is a sequence of segments, each a view into a byte buffer.
    Small data lives in ordinary mbufs ([mlen] bytes of storage); bulk data
    lives in clusters ([cluster_size] bytes). Protocol headers are
    prepended into reserved headroom without copying the payload, and the
    TCP send queue hands out {e copies} of ranges ([copy_range], BSD's
    [m_copym]) because data must survive on the queue until acknowledged.

    Chains are mutable; operations are destructive unless documented
    otherwise. *)

type t

val mlen : int
(** Data bytes available in a small mbuf (BSD: 108). *)

val cluster_size : int
(** Data bytes in a cluster mbuf (BSD: 2048). *)

val default_headroom : int
(** Headroom reserved by {!of_string} and friends for link/IP/TCP headers
    prepended later (enough for Ethernet + IP + TCP). *)

val empty : unit -> t
(** A fresh zero-length chain. *)

val of_string : string -> t
(** Copy a payload into a new chain, chunked into clusters. *)

val of_bytes : ?headroom:int -> Bytes.t -> off:int -> len:int -> t
(** Copy [len] bytes of [b] at [off] into a new chain. Payloads that fit
    in a small mbuf (headroom + len ≤ [mlen]) get one, larger ones are
    chunked into clusters. *)

val of_bytes_view : Bytes.t -> off:int -> len:int -> t
(** Wrap a byte range as a chain {e without copying}. The chain aliases
    [b]: the caller must not mutate the range afterwards. The segment is
    marked shared, so {!prepend} never reuses headroom inside [b]. *)

val length : t -> int
(** Total payload bytes in the chain. *)

val seg_count : t -> int
(** Number of segments (for mbuf-allocation cost accounting). *)

val is_empty : t -> bool

val prepend : t -> int -> Bytes.t * int
(** [prepend t n] grows the chain by [n] bytes at the front — in the first
    segment's headroom when it fits, otherwise in a fresh mbuf — and
    returns [(buf, off)] where the caller writes the header. *)

val trim_front : t -> int -> unit
(** Drop the first [n] bytes (strip a header).
    @raise Invalid_argument if the chain is shorter than [n]. *)

val trim_back : t -> int -> unit
(** Drop the last [n] bytes. *)

val drop_front : t -> int -> unit
(** Alias of {!trim_front}, named for its socket-buffer use (BSD [sbdrop]:
    release acknowledged data). *)

val concat : t -> t -> unit
(** [concat a b] appends [b]'s segments to [a]; [b] becomes empty. *)

val copy_range : t -> off:int -> len:int -> t
(** Non-destructive copy of a byte range as a fresh chain (BSD [m_copym]).
    @raise Invalid_argument if the range exceeds the chain. *)

val split : t -> int -> t
(** [split t n] removes the first [n] bytes of [t] and returns them as a
    new chain; [t] keeps the remainder. Zero-copy (BSD [m_split]): the
    two chains share buffers, which both sides track so header prepends
    never write into shared storage. *)

val sub_view : t -> off:int -> len:int -> t
(** Non-destructive zero-copy window onto a byte range: fresh segment
    records over the same buffers. Read-only by the same aliasing rule
    as {!of_bytes_view}. *)

val contiguous : t -> (Bytes.t * int * int) option
(** [Some (buf, off, len)] when the chain's payload is a single
    contiguous byte range (at most one non-empty segment) — the
    zero-copy header-decode fast path. [None] otherwise. *)

val to_bytes : t -> Bytes.t
(** Flatten to a contiguous buffer (handing a frame to the wire). *)

val blit_to_bytes : t -> Bytes.t -> int -> unit
(** Flatten into an existing buffer at an offset. *)

val to_string : t -> string

val fold_ranges : t -> init:'a -> f:('a -> Bytes.t -> off:int -> len:int -> 'a) -> 'a
(** Fold over the segments' byte ranges (checksum, copies) without
    flattening. *)

val checksum_add : t -> Psd_util.Checksum.acc -> Psd_util.Checksum.acc
(** Fold the whole chain into an Internet-checksum accumulator, running
    the word-at-a-time kernel directly over the segments (odd-length
    segment boundaries handled by the RFC 1071 byte-swap identity).
    Equals [Checksum.add_bytes] over the flattened chain. *)
