let run () = Shared.twin ()
