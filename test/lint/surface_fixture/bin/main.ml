module A = Demo.Alpha

let unreferenced = A.referenced 1

let () =
  let open Alpha in
  print_int (unreferenced + opened)
