(** BPF-style packet-filter instruction set.

    A register machine in the style of McCanne & Jacobson's BSD Packet
    Filter: a 32-bit accumulator [A], an index register [X], sixteen
    32-bit scratch cells, and forward-only conditional jumps. Programs
    inspect a packet and return the number of bytes to deliver
    (0 = reject). *)

type size = B  (** byte *) | H  (** 16-bit big-endian *) | W  (** 32-bit *)

type mode =
  | Abs of int  (** packet byte at constant offset *)
  | Ind of int  (** packet byte at [X + k] *)
  | Len  (** packet length *)
  | Imm of int  (** constant *)
  | Mem of int  (** scratch cell *)
  | Msh of int
      (** [4 * (pkt[k] land 0xf)] — extracts an IP header length;
          only valid for {!Insn.t.Ldx} *)

type src = K of int  (** constant operand *) | X  (** index register *)

type alu = Add | Sub | Mul | Div | And | Or | Lsh | Rsh

type cond = Jeq | Jgt | Jge | Jset

type ret = RetK of int | RetA

type t =
  | Ld of size * mode  (** load into A *)
  | Ldx of mode  (** load into X *)
  | St of int  (** A to scratch cell *)
  | Stx of int  (** X to scratch cell *)
  | Alu of alu * src  (** A := A op src *)
  | Neg  (** A := -A *)
  | Ja of int  (** unconditional forward jump *)
  | Jmp of cond * src * int * int  (** compare A, jump jt / jf *)
  | Ret of ret
  | Tax  (** X := A *)
  | Txa  (** A := X *)
