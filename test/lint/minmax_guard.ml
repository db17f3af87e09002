(* Reports every call of the bare, polymorphic [min]/[max] in the .ml
   files under a directory. [Stdlib.min] on ints is a C call into the
   generic compare; library code uses [Int.min]/[Int.max] (or a
   qualified [Float.]/[Seq.]/[Stats.]/[Stdlib.] name) instead.

   A small lexer drops comments, strings and character literals, then an
   identifier [min]/[max] counts as a call when it is unqualified (not
   after [.], [~] or [?]), is not being bound ([let]/[and]/[val]/[fun]/
   [method]), and is followed by the start of an argument. Variables
   and record fields named [max] are therefore left alone. *)

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

type token = Ident of string * int | Sym of char * int

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Tokens of [s] with line numbers; comments, strings and character
   literals produce nothing. *)
let tokens s =
  let n = String.length s in
  let line = ref 1 in
  let toks = ref [] in
  let i = ref 0 in
  let peek k = if !i + k < n then s.[!i + k] else '\000' in
  let adv () =
    if s.[!i] = '\n' then incr line;
    incr i
  in
  let skip_string () =
    adv ();
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' then adv ();
      if !i < n then adv ()
    done;
    if !i < n then adv ()
  in
  let skip_comment () =
    (* entered just past "(*" *)
    let depth = ref 1 in
    while !i < n && !depth > 0 do
      match s.[!i] with
      | '(' when peek 1 = '*' ->
        adv ();
        adv ();
        incr depth
      | '*' when peek 1 = ')' ->
        adv ();
        adv ();
        decr depth
      | '"' -> skip_string ()
      | _ -> adv ()
    done
  in
  let rec loop () =
    if !i < n then begin
      let c = s.[!i] in
      (if c = '(' && peek 1 = '*' then begin
         adv ();
         adv ();
         skip_comment ()
       end
       else if c = '"' then skip_string ()
       else if c = '\'' && peek 1 = '\\' then begin
         (* escaped character literal *)
         adv ();
         adv ();
         while !i < n && s.[!i] <> '\'' do
           adv ()
         done;
         if !i < n then adv ()
       end
       else if c = '\'' && peek 2 = '\'' then begin
         adv ();
         adv ();
         adv ()
       end
       else if is_ident_start c then begin
         let start = !i and l = !line in
         while !i < n && is_ident_char s.[!i] do
           adv ()
         done;
         toks := Ident (String.sub s start (!i - start), l) :: !toks
       end
       else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then adv ()
       else begin
         toks := Sym (c, !line) :: !toks;
         adv ()
       end);
      loop ()
    end
  in
  loop ();
  List.rev !toks

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

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

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
