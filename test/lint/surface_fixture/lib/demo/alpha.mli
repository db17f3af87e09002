val referenced : int -> int
(** Referenced from bin/main.ml through an alias. *)

val opened : int
(** Referenced from bin/main.ml as a bare name under [let open]. *)
