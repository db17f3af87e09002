type t = (Phase.t, int ref) Hashtbl.t

let create () = Hashtbl.create 16

let cell t phase =
  match Hashtbl.find_opt t phase with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t phase r;
    r

let add t phase ns = cell t phase := !(cell t phase) + ns

let total t phase = match Hashtbl.find_opt t phase with
  | Some r -> !r
  | None -> 0
