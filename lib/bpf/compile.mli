(** Filter programs compiled to OCaml closures.

    Compilation translates a validated program into one closure per
    instruction, with jump targets resolved at compile time (forward-only
    jumps make a single back-to-front pass sufficient). Running a
    compiled filter performs no fetch/decode dispatch, which makes it
    several times faster than {!Vm.run} on the per-frame demultiplexing
    path — while still counting executed instructions, so the simulated
    (virtual-time) cost charged per packet is identical to the
    interpreter's. *)

type t
(** A compiled filter. A value of this type owns mutable scratch state:
    it is cheap to run repeatedly but must not be executed reentrantly
    (the simulator is single-threaded, so this never arises). *)

val compile_exn : Vm.program -> t
(** @raise Invalid_argument if the program fails validation. *)

val exec : t -> Bytes.t -> off:int -> len:int -> int * int
(** [exec t pkt ~off ~len] runs the filter over the packet view
    [pkt[off .. off+len)] and returns [(accepted_bytes,
    instructions_executed)] — exactly what {!Vm.run} would return on the
    same view. Absolute loads are relative to [off]; [Len] loads read
    [len]. Out-of-bounds packet loads reject (0 accepted bytes).
    @raise Invalid_argument if the view exceeds the buffer. *)

val run : t -> Bytes.t -> int * int
(** [run t pkt] = [exec t pkt ~off:0 ~len:(Bytes.length pkt)] — the
    drop-in replacement for {!Vm.run_exn}. *)
