val run : unit -> unit
(** Referenced from bin/main.ml as [Extra.User.run]. *)
