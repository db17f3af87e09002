val unreferenced : unit -> unit
(** Used only inside beta.ml, and named bare in bin/main.ml where [Beta]
    is not open: the guard must report it. *)
