(* Reports every call of the bare, polymorphic [min]/[max] in the .ml
   files under a directory. [Stdlib.min] on ints is a C call into the
   generic compare; library code uses [Int.min]/[Int.max] (or a
   qualified [Float.]/[Seq.]/[Stats.]/[Stdlib.] name) instead.

   A small lexer drops comments, strings and character literals, then an
   identifier [min]/[max] counts as a call when it is unqualified (not
   after [.], [~] or [?]), is not being bound ([let]/[and]/[val]/[fun]/
   [method]), and is followed by the start of an argument. Variables
   and record fields named [max] are therefore left alone. *)

open Lint_tokens

let keywords =
  [ "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "end"; "exception"; "external"; "false"; "for";
    "fun"; "function"; "functor"; "if"; "in"; "include"; "inherit";
    "initializer"; "lazy"; "let"; "match"; "method"; "module"; "mutable";
    "new"; "nonrec"; "object"; "of"; "open"; "or"; "private"; "rec";
    "sig"; "struct"; "then"; "to"; "true"; "try"; "type"; "val";
    "virtual"; "when"; "while"; "with"; "land"; "lor"; "lxor"; "lsl";
    "lsr"; "asr"; "mod" ]

let binders = [ "let"; "and"; "val"; "fun"; "method"; "external" ]

let starts_argument = function
  | Ident (w, _) -> not (List.mem w keywords)
  | Sym (c, _) -> String.contains "(![0123456789" c

let calls toks =
  let rec go prev = function
    | Ident (("min" | "max") as w, l) :: (next :: _ as rest) ->
      let bound_or_qualified =
        match prev with
        | Some (Sym (('.' | '~' | '?'), _)) -> true
        | Some (Ident (p, _)) -> List.mem p binders
        | _ -> false
      in
      let hits = go (Some (Ident (w, l))) rest in
      if (not bound_or_qualified) && starts_argument next then (w, l) :: hits
      else hits
    | tok :: rest -> go (Some tok) rest
    | [] -> []
  in
  go None toks

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let found =
    List.concat_map
      (fun file ->
        let s = In_channel.with_open_bin file In_channel.input_all in
        List.map (fun (w, l) -> (file, l, w)) (calls (tokens s)))
      (ml_files root)
  in
  List.iter
    (fun (file, l, w) ->
      Printf.printf "%s:%d: bare polymorphic %s; use Int.%s (or Float.%s)\n"
        file l w w w)
    found;
  if found <> [] then exit 1
