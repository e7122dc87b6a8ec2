(* The parser pulls tokens straight from the lexer cursor: [cur.kind] is the
   lookahead, [Lexer.advance] consumes it. *)
type state = Lexer.cursor

let kind (st : state) = st.Lexer.kind

let skip = Lexer.advance

(* Drain before raising: a lexical error anywhere in the file outranks a
   syntax error, exactly as when the file was tokenized up front. *)
let fail_at st ~line ~col msg =
  Lexer.drain st;
  Error.fail ~file:st.Lexer.file ~line ~col msg

let fail_here st msg = fail_at st ~line:st.Lexer.tline ~col:st.Lexer.tcol msg

let expected st what =
  fail_here st
    (Printf.sprintf "expected %s but found %s" what (Token.describe (kind st)))

(* [k] is always a constant constructor, so physical equality decides it
   without a polymorphic-compare call per token. *)
let expect st k =
  if kind st == k then skip st else expected st (Token.describe k)

let expect_ident st what =
  match kind st with
  | Token.Ident s ->
      skip st;
      s
  | _ -> expected st what

(* Dotted name: IDENT (. IDENT)* *)
let parse_dotted st =
  let first = expect_ident st "a name" in
  let rec rest acc =
    match kind st with
    | Token.Dot ->
        skip st;
        rest (expect_ident st "a name after '.'" :: acc)
    | _ -> acc
  in
  match rest [] with
  | [] -> first
  | parts -> String.concat "." (first :: List.rev parts)

let parse_type st =
  let base = parse_dotted st in
  let rec dims n =
    match kind st with
    | Token.Lbracket ->
        skip st;
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
    match kind st with
    | Token.At ->
        skip st;
        let name = expect_ident st "an annotation name" in
        if String.equal name "Deprecated" then m.deprecated <- true;
        loop ()
    | Token.Kw_public ->
        skip st;
        m.vis <- Javamodel.Member.Public;
        loop ()
    | Token.Kw_protected ->
        skip st;
        m.vis <- Javamodel.Member.Protected;
        loop ()
    | Token.Kw_private ->
        skip st;
        m.vis <- Javamodel.Member.Private;
        loop ()
    | Token.Kw_static ->
        skip st;
        m.static <- true;
        loop ()
    | Token.Kw_abstract ->
        skip st;
        m.abstract <- true;
        loop ()
    | Token.Kw_final ->
        skip st;
        loop ()
    | _ -> ()
  in
  loop ();
  m

let parse_params st =
  expect st Token.Lparen;
  let params = ref [] in
  (match kind st with
  | Token.Rparen -> ()
  | _ ->
      let rec loop () =
        let ptype = parse_type st in
        let pname =
          match kind st with
          | Token.Ident _ -> Some (expect_ident st "a parameter name")
          | _ -> None
        in
        params := { Ast.ptype; pname } :: !params;
        match kind st with
        | Token.Comma ->
            skip st;
            loop ()
        | _ -> ()
      in
      loop ());
  expect st Token.Rparen;
  List.rev !params

let parse_member st ~decl_name =
  let m = parse_annotations_and_modifiers st in
  let first = parse_type st in
  match kind st with
  | Token.Lparen when first.Ast.dims = 0 && String.equal first.Ast.base decl_name ->
      (* Constructor: the declaration's own simple name followed by '('. *)
      let params = parse_params st in
      expect st Token.Semi;
      Ast.Rctor { vis = m.vis; params }
  | _ -> (
      let name = expect_ident st "a member name" in
      match kind st with
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
    match kind st with
    | Token.Comma ->
        skip st;
        loop (n :: acc)
    | _ -> List.rev (n :: acc)
  in
  loop []

let parse_decl st =
  let decl_line = st.Lexer.tline in
  let m = parse_annotations_and_modifiers st in
  let k = kind st in
  skip st;
  let dkind =
    match k with
    | Token.Kw_class -> Javamodel.Decl.Class
    | Token.Kw_interface -> Javamodel.Decl.Interface
    | k ->
        (* the token just consumed — or, at end of input (which [skip] does
           not step past), the last real token *)
        fail_at st ~line:st.Lexer.prev_line ~col:st.Lexer.prev_col
          (Printf.sprintf "expected 'class' or 'interface' but found %s"
             (Token.describe k))
  in
  let name = expect_ident st "a class or interface name" in
  let extends =
    match kind st with
    | Token.Kw_extends ->
        skip st;
        parse_name_list st
    | _ -> []
  in
  let implements =
    match kind st with
    | Token.Kw_implements ->
        skip st;
        parse_name_list st
    | _ -> []
  in
  expect st Token.Lbrace;
  let members = ref [] in
  let rec loop () =
    match kind st with
    | Token.Rbrace -> skip st
    | Token.Eof -> fail_here st "unexpected end of input inside a declaration"
    | _ ->
        members := parse_member st ~decl_name:name :: !members;
        loop ()
  in
  loop ();
  {
    Ast.kind = dkind;
    abstract = m.abstract || dkind = Javamodel.Decl.Interface;
    name;
    extends;
    implements;
    members = List.rev !members;
    decl_line;
  }

let parse ~file src =
  let st = Lexer.cursor ~file src in
  let package =
    match kind st with
    | Token.Kw_package ->
        skip st;
        let name = parse_dotted st in
        expect st Token.Semi;
        String.split_on_char '.' name
    | _ -> []
  in
  let imports = ref [] in
  let rec import_loop () =
    match kind st with
    | Token.Kw_import ->
        skip st;
        imports := parse_dotted st :: !imports;
        expect st Token.Semi;
        import_loop ()
    | _ -> ()
  in
  import_loop ();
  let decls = ref [] in
  let rec decl_loop () =
    match kind st with
    | Token.Eof -> ()
    | _ ->
        decls := parse_decl st :: !decls;
        decl_loop ()
  in
  decl_loop ();
  { Ast.src_file = file; package; imports = List.rev !imports; decls = List.rev !decls }
