(* The small OCaml lexer the lint guards share: tokens of a source file
   with line numbers (comments, strings and character literals produce
   nothing), and the .ml files under a directory. *)

type token = Ident of string * int | Sym of char * int

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

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

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

