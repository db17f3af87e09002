(** ARP mapping cache with expiry and change notification.

    The operating system server owns the authoritative table; protocol
    libraries hold local caches and subscribe to invalidation callbacks so
    the send path never has to consult the server for a warm mapping
    (paper Section 3.3). *)

type t

val create : Psd_sim.Engine.t -> ?ttl_ns:int -> unit -> t
(** Entries expire [ttl_ns] after insertion (default 20 minutes, BSD's
    ARP lifetime). *)

val lookup : t -> Psd_ip.Addr.t -> Psd_link.Macaddr.t option
(** [None] for missing or expired entries. *)

val insert : t -> Psd_ip.Addr.t -> Psd_link.Macaddr.t -> unit
(** Insert or refresh; notifies subscribers of the change. *)

type confirmed =
  | Absent  (** missing or expired *)
  | Confirmed  (** live, with the same MAC: refreshed *)
  | Changed  (** live, with another MAC: untouched *)

val confirm : t -> Psd_ip.Addr.t -> Bytes.t -> int -> confirmed
(** [confirm t ip b off] compares [ip]'s entry with the six-byte MAC at
    [off] in [b], without building a string. It looks the entry up as
    {!lookup} does (an expired one is removed and notified); a live one
    with the same MAC gets what {!insert} of that mapping would give it:
    a new expiry and a notification. A [Changed] entry is not touched. *)

val invalidate : t -> Psd_ip.Addr.t -> unit
(** Remove an entry; notifies subscribers. *)

val subscribe : t -> (Psd_ip.Addr.t -> unit) -> unit
(** Register a callback fired whenever a mapping is inserted, refreshed,
    invalidated or expired — the server uses this to push invalidations
    into application caches. *)

val entries : t -> (Psd_ip.Addr.t * Psd_link.Macaddr.t) list

val size : t -> int
