val twin : unit -> unit
(** Used only inside shared.ml. Its namesake [Extra.Shared.twin] is
    used, from its own library: the guard must report this one. *)
