val referenced : ?by:int -> ?unset:int -> int -> int
(** Referenced from bin/main.ml through an alias, which passes [~by]
    but never [?unset]: the guard must report the label. *)

val opened : int
(** Referenced from bin/main.ml as a bare name under [let open]. *)

module Inner : sig
  val shown : int
  (** Referenced from bin/main.ml as [A.Inner.shown]. *)

  val hidden : unit -> unit
  (** Used only inside alpha.ml: the guard must report it. *)
end
