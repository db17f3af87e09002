type 'a t = {
  buf : 'a option array;
  mutable head : int; (* next pop position *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { buf = Array.make capacity None; head = 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.buf then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.buf in
    t.buf.(tail) <- Some x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    x
  end
