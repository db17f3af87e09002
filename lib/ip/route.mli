(** Longest-prefix-match routing table.

    Routes are protocol metastate: long-lived, shared by every session,
    owned by the operating system server, and cached read-only by
    application protocol libraries (paper Section 3.3). *)

type next_hop =
  | Direct  (** destination is on the attached network *)
  | Gateway of Addr.t

type entry = { net : Addr.t; mask : Addr.t; hop : next_hop; iface : int }

type t

val create : unit -> t

val add : t -> entry -> unit
(** Later additions replace earlier entries with the same [net]/[mask]. *)

val lookup : t -> Addr.t -> (Addr.t * int) option
(** [lookup t dst] resolves the address to forward to — [dst] itself for
    directly-connected networks, the gateway otherwise — and the interface
    index. [None] when no route matches. *)

val entries : t -> entry list
(** Current entries, most-specific first. *)

val generation : t -> int
(** Incremented on every mutation; lets caches detect staleness. *)
