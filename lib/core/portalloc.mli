(** Host-wide transport port namespace.

    With protocol stacks in application address spaces, port uniqueness
    can no longer be enforced by a single in-kernel PCB table; the
    operating-system server owns this allocator and every endpoint name
    passes through it (paper Section 3.2, "Establishing connections"). *)

type t

val create : unit -> t
(** Ephemeral allocation starts at port 1024. *)

val reserve : t -> int -> (unit, [ `In_use ]) result
(** Claim a specific port. *)

val alloc_ephemeral : t -> int
(** Claim the next free ephemeral port: amortised O(1) — a rising
    watermark while virgin ports remain (same order the old linear
    scan produced), then FIFO recycling of released ports.
    @raise Failure if the namespace is exhausted. *)

val claim : t -> int option -> (int, string) result
(** The bind rule: [Some port] claims that port ([Error "address in
    use"] if taken), [None] a fresh ephemeral one. *)

val release : t -> int -> unit

val count : t -> int
