val twin : unit -> unit
(** Referenced bare from lib/extra/user.ml, in its own library. *)
