type t = {
  mutable samples : float list;
  mutable n : int;
  mutable mean : float;
  mutable sorted : float array option;
}

let create () =
  {
    samples = [];
    n = 0;
    mean = 0.;
    sorted = None;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

let mean t = if t.n = 0 then nan else t.mean

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then nan
  else begin
    let a = sorted t in
    let rank =
      int_of_float (ceil (p /. 100. *. float_of_int t.n)) - 1
    in
    a.(Stdlib.max 0 (Stdlib.min (t.n - 1) rank))
  end

(* Named-counter rendering shared by the workload reports: only the
   counters that actually fired are worth a reader's attention. *)
let pp_counters fmt counters =
  match List.filter (fun (_, v) -> v <> 0) counters with
  | [] -> Format.pp_print_string fmt "none"
  | live ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ' ')
      (fun fmt (k, v) -> Format.fprintf fmt "%s=%d" k v)
      fmt live
