let hidden () = ()
