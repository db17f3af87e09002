(* Reports every read of [Config.placement] in the .ml files under a
   directory, outside the few files allowed to decide placement. A
   protocol placement is resolved once, when [System] builds each
   application's session home; the socket layer dispatches on that
   value. A new [match c.placement] elsewhere would scatter the
   decision again.

   A read is a [placement] field access (an identifier [placement]
   right after [.]) or a placement constructor ([In_kernel], [Server],
   [Library], [Offload]) that is not a module path component (not
   followed by [.]) and not a polymorphic variant (not after [`]).
   Paths are relative to the directory given on the command line. *)

open Lint_tokens

let allowed =
  [ "cost/config.ml"; "core/system.ml";
    (* Figure 1 names where each configuration runs its stack *)
    "workloads/tables.ml" ]

let constructors = [ "In_kernel"; "Server"; "Library"; "Offload" ]

let reads toks =
  let rec go prev = function
    | Ident ("placement", l) :: rest when prev = Some '.' ->
      ("placement", l) :: go None rest
    | Ident (c, l) :: rest
      when List.mem c constructors && prev <> Some '`'
           && (match rest with Sym ('.', _) :: _ -> false | _ -> true) ->
      (c, l) :: go None rest
    | Sym (c, _) :: rest -> go (Some c) rest
    | Ident _ :: rest -> go None rest
    | [] -> []
  in
  go None toks

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let prefix = Filename.concat root "" in
  let relative file =
    let n = String.length prefix in
    if String.starts_with ~prefix file then
      String.sub file n (String.length file - n)
    else file
  in
  let found =
    List.concat_map
      (fun file ->
        if List.mem (relative file) allowed then []
        else
          let s = In_channel.with_open_bin file In_channel.input_all in
          List.map (fun (w, l) -> (file, l, w)) (reads (tokens s)))
      (ml_files root)
  in
  List.iter
    (fun (file, l, w) ->
      Printf.printf
        "%s:%d: reads Config.placement (%s); dispatch on the session home \
         System builds instead\n"
        file l w)
    found;
  if found <> [] then exit 1
