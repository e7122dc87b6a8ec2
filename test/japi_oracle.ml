(* Reference front end for the [.japi] oracle tests: the original
   array-based lexer and parser. The lexer tokenizes the whole file before
   the parser sees a token, so any lexical error in a file is what it
   reports; the streaming {!Japi.Lexer} cursor and {!Japi.Parser} must agree
   with it on every input — same AST, or the same located error. *)

module Token = Japi.Token
module Ast = Japi.Ast
module Error = Japi.Error

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize ~file src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let col = ref 1 in
  let i = ref 0 in
  let emit kind ~line ~col = tokens := { Token.kind; line; col } :: !tokens in
  let advance () =
    (if src.[!i] = '\n' then (
       incr line;
       col := 1)
     else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] in
    let tok_line = !line and tok_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then
        Error.fail ~file ~line:tok_line ~col:tok_col "unterminated block comment"
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let word = String.sub src start (!i - start) in
      let kind =
        match Token.keyword_of_ident word with
        | Some kw -> kw
        | None -> Token.Ident word
      in
      emit kind ~line:tok_line ~col:tok_col
    end
    else begin
      let kind =
        match c with
        | '{' -> Some Token.Lbrace
        | '}' -> Some Token.Rbrace
        | '(' -> Some Token.Lparen
        | ')' -> Some Token.Rparen
        | ';' -> Some Token.Semi
        | ',' -> Some Token.Comma
        | '.' -> Some Token.Dot
        | '[' -> Some Token.Lbracket
        | ']' -> Some Token.Rbracket
        | '@' -> Some Token.At
        | _ -> None
      in
      match kind with
      | Some k ->
          advance ();
          emit k ~line:tok_line ~col:tok_col
      | None ->
          Error.fail ~file ~line:tok_line ~col:tok_col
            (Printf.sprintf "unexpected character '%c'" c)
    end
  done;
  tokens := { Token.kind = Token.Eof; line = !line; col = !col } :: !tokens;
  Array.of_list (List.rev !tokens)

(* ---------- parser ---------- *)

type state = {
  file : string;
  toks : Token.t array;
  mutable pos : int;
}

let peek st = st.toks.(st.pos)

let next st =
  let t = st.toks.(st.pos) in
  if t.Token.kind <> Token.Eof then st.pos <- st.pos + 1;
  t

let fail_at st (t : Token.t) msg = Error.fail ~file:st.file ~line:t.line ~col:t.col msg

let expect st kind =
  let t = next st in
  if t.Token.kind <> kind then
    fail_at st t
      (Printf.sprintf "expected %s but found %s" (Token.describe kind)
         (Token.describe t.Token.kind))

let expect_ident st what =
  let t = next st in
  match t.Token.kind with
  | Token.Ident s -> s
  | k -> fail_at st t (Printf.sprintf "expected %s but found %s" what (Token.describe k))

(* Dotted name: IDENT (. IDENT)* *)
let parse_dotted st =
  let first = expect_ident st "a name" in
  let buf = Buffer.create 16 in
  Buffer.add_string buf first;
  let rec loop () =
    match (peek st).Token.kind with
    | Token.Dot ->
        ignore (next st);
        Buffer.add_char buf '.';
        Buffer.add_string buf (expect_ident st "a name after '.'");
        loop ()
    | _ -> ()
  in
  loop ();
  Buffer.contents buf

let parse_type st =
  let base = parse_dotted st in
  let rec dims n =
    match (peek st).Token.kind with
    | Token.Lbracket ->
        ignore (next st);
        expect st Token.Rbracket;
        dims (n + 1)
    | _ -> n
  in
  { Ast.base; dims = dims 0 }

type modifiers = {
  mutable vis : Javamodel.Member.visibility;
  mutable static : bool;
  mutable abstract : bool;
  mutable deprecated : bool;
}

let parse_annotations_and_modifiers st =
  let m =
    { vis = Javamodel.Member.Public; static = false; abstract = false; deprecated = false }
  in
  let rec loop () =
    match (peek st).Token.kind with
    | Token.At ->
        ignore (next st);
        let name = expect_ident st "an annotation name" in
        if String.equal name "Deprecated" then m.deprecated <- true;
        loop ()
    | Token.Kw_public ->
        ignore (next st);
        m.vis <- Javamodel.Member.Public;
        loop ()
    | Token.Kw_protected ->
        ignore (next st);
        m.vis <- Javamodel.Member.Protected;
        loop ()
    | Token.Kw_private ->
        ignore (next st);
        m.vis <- Javamodel.Member.Private;
        loop ()
    | Token.Kw_static ->
        ignore (next st);
        m.static <- true;
        loop ()
    | Token.Kw_abstract ->
        ignore (next st);
        m.abstract <- true;
        loop ()
    | Token.Kw_final ->
        ignore (next st);
        loop ()
    | _ -> ()
  in
  loop ();
  m

let parse_params st =
  expect st Token.Lparen;
  let params = ref [] in
  (match (peek st).Token.kind with
  | Token.Rparen -> ()
  | _ ->
      let rec loop () =
        let ptype = parse_type st in
        let pname =
          match (peek st).Token.kind with
          | Token.Ident _ -> Some (expect_ident st "a parameter name")
          | _ -> None
        in
        params := { Ast.ptype; pname } :: !params;
        match (peek st).Token.kind with
        | Token.Comma ->
            ignore (next st);
            loop ()
        | _ -> ()
      in
      loop ());
  expect st Token.Rparen;
  List.rev !params

let parse_member st ~decl_name =
  let m = parse_annotations_and_modifiers st in
  let first = parse_type st in
  match (peek st).Token.kind with
  | Token.Lparen when first.Ast.dims = 0 && String.equal first.Ast.base decl_name ->
      (* Constructor: the declaration's own simple name followed by '('. *)
      let params = parse_params st in
      expect st Token.Semi;
      Ast.Rctor { vis = m.vis; params }
  | _ -> (
      let name = expect_ident st "a member name" in
      match (peek st).Token.kind with
      | Token.Lparen ->
          let params = parse_params st in
          expect st Token.Semi;
          Ast.Rmeth
            {
              vis = m.vis;
              static = m.static;
              deprecated = m.deprecated;
              ret = first;
              name;
              params;
            }
      | _ ->
          expect st Token.Semi;
          Ast.Rfield { vis = m.vis; static = m.static; typ = first; name })

let parse_name_list st =
  let rec loop acc =
    let n = parse_dotted st in
    match (peek st).Token.kind with
    | Token.Comma ->
        ignore (next st);
        loop (n :: acc)
    | _ -> List.rev (n :: acc)
  in
  loop []

let parse_decl st =
  let decl_line = (peek st).Token.line in
  let m = parse_annotations_and_modifiers st in
  let kind =
    match (next st).Token.kind with
    | Token.Kw_class -> Javamodel.Decl.Class
    | Token.Kw_interface -> Javamodel.Decl.Interface
    | k ->
        fail_at st
          st.toks.(st.pos - 1)
          (Printf.sprintf "expected 'class' or 'interface' but found %s"
             (Token.describe k))
  in
  let name = expect_ident st "a class or interface name" in
  let extends =
    match (peek st).Token.kind with
    | Token.Kw_extends ->
        ignore (next st);
        parse_name_list st
    | _ -> []
  in
  let implements =
    match (peek st).Token.kind with
    | Token.Kw_implements ->
        ignore (next st);
        parse_name_list st
    | _ -> []
  in
  expect st Token.Lbrace;
  let members = ref [] in
  let rec loop () =
    match (peek st).Token.kind with
    | Token.Rbrace -> ignore (next st)
    | Token.Eof -> fail_at st (peek st) "unexpected end of input inside a declaration"
    | _ ->
        members := parse_member st ~decl_name:name :: !members;
        loop ()
  in
  loop ();
  {
    Ast.kind;
    abstract = m.abstract || kind = Javamodel.Decl.Interface;
    name;
    extends;
    implements;
    members = List.rev !members;
    decl_line;
  }

let parse ~file src =
  let st = { file; toks = tokenize ~file src; pos = 0 } in
  let package =
    match (peek st).Token.kind with
    | Token.Kw_package ->
        ignore (next st);
        let name = parse_dotted st in
        expect st Token.Semi;
        String.split_on_char '.' name
    | _ -> []
  in
  let imports = ref [] in
  let rec import_loop () =
    match (peek st).Token.kind with
    | Token.Kw_import ->
        ignore (next st);
        imports := parse_dotted st :: !imports;
        expect st Token.Semi;
        import_loop ()
    | _ -> ()
  in
  import_loop ();
  let decls = ref [] in
  let rec decl_loop () =
    match (peek st).Token.kind with
    | Token.Eof -> ()
    | _ ->
        decls := parse_decl st :: !decls;
        decl_loop ()
  in
  decl_loop ();
  { Ast.src_file = file; package; imports = List.rev !imports; decls = List.rev !decls }

let load_files sources =
  Japi.Loader.load_rfiles (List.map (fun (file, src) -> parse ~file src) sources)
