module A = Demo.Alpha

let unreferenced = A.referenced ~by:2 1

let () =
  let open Alpha in
  print_int (unreferenced + opened + A.Inner.shown);
  Extra.User.run ();
  Extra.Inner.hidden ()
