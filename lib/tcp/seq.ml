type t = int

let modulus = 1 lsl 32

let add a n = (a + n) land (modulus - 1)

let sub a n = (a - n) land (modulus - 1)

let diff a b =
  let d = (a - b) land (modulus - 1) in
  if d >= modulus / 2 then d - modulus else d

let lt a b = diff a b < 0

let leq a b = diff a b <= 0

let gt a b = diff a b > 0

let geq a b = diff a b >= 0

let max a b = if geq a b then a else b

let in_window x ~base ~size =
  let d = diff x base in
  d >= 0 && d < size
