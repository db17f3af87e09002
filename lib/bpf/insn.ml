type size = B | H | W

type mode = Abs of int | Ind of int | Len | Imm of int | Mem of int | Msh of int

type src = K of int | X

type alu = Add | Sub | Mul | Div | And | Or | Lsh | Rsh

type cond = Jeq | Jgt | Jge | Jset

type ret = RetK of int | RetA

type t =
  | Ld of size * mode
  | Ldx of mode
  | St of int
  | Stx of int
  | Alu of alu * src
  | Neg
  | Ja of int
  | Jmp of cond * src * int * int
  | Ret of ret
  | Tax
  | Txa
