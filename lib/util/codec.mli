(** Big-endian fixed-width integer accessors over [Bytes.t].

    All network headers in this project are encoded with these helpers.
    Every function raises [Invalid_argument] on out-of-bounds access. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit

val get_u16 : Bytes.t -> int -> int
(** Big-endian 16-bit read. *)

val set_u16 : Bytes.t -> int -> int -> unit
(** Big-endian 16-bit write; the value is truncated to 16 bits. *)

val get_u32i : Bytes.t -> int -> int
(** 32-bit read as a non-negative OCaml [int]. *)

val set_u32i : Bytes.t -> int -> int -> unit
(** 32-bit write from an OCaml [int]; truncated to 32 bits. *)

val blit_string : string -> Bytes.t -> int -> unit
(** [blit_string s b off] copies all of [s] into [b] at [off]. *)
