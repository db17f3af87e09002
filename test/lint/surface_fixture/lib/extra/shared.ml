let twin () = ()
