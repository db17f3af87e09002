let twin () = ()

let () = twin ()
