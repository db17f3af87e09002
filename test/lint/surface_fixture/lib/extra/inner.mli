val hidden : unit -> unit
(** Referenced from bin/main.ml as [Extra.Inner.hidden]; the nested
    [Alpha.Inner.hidden] shares its name and stays unreferenced. *)
