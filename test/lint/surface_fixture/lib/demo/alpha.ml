let referenced ?(by = 1) ?(unset = 0) x = x + by + unset

let opened = 2

module Inner = struct
  let shown = 3

  let hidden () = ()

  let () = hidden ()
end
