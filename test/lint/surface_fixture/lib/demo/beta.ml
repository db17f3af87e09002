let unreferenced () = ()

let () = unreferenced ()
