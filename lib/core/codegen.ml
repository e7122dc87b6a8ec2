module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member

type generated = {
  code : string;
  result_var : string;
  free_var_names : (string * Jtype.t) list;
}

(* Names that cannot be used as Java identifiers; a derived variable name
   landing on one must be rewritten or the generated code won't compile. *)
let keywords =
  let t = Hashtbl.create 64 in
  List.iter
    (fun k -> Hashtbl.replace t k ())
    [
      "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch"; "char";
      "class"; "const"; "continue"; "default"; "do"; "double"; "else"; "enum";
      "extends"; "false"; "final"; "finally"; "float"; "for"; "goto"; "if";
      "implements"; "import"; "instanceof"; "int"; "interface"; "long"; "native";
      "new"; "null"; "package"; "private"; "protected"; "public"; "return";
      "short"; "static"; "strictfp"; "super"; "switch"; "synchronized"; "this";
      "throw"; "throws"; "transient"; "true"; "try"; "void"; "volatile"; "while";
    ];
  t

let is_keyword name = Hashtbl.mem keywords name

let var_name_of_type ty =
  let simple = Jtype.simple_string ty in
  let simple =
    match String.index_opt simple '[' with
    | Some i -> String.sub simple 0 i ^ "s"
    | None -> simple
  in
  let simple =
    if
      String.length simple >= 2
      && simple.[0] = 'I'
      && simple.[1] = Char.uppercase_ascii simple.[1]
      && simple.[1] <> Char.lowercase_ascii simple.[1]
    then String.sub simple 1 (String.length simple - 1)
    else simple
  in
  if simple = "" then "v"
  else
    let name =
      String.make 1 (Char.lowercase_ascii simple.[0])
      ^ String.sub simple 1 (String.length simple - 1)
    in
    if name = "class" then "clazz"
    else if is_keyword name then name ^ "_"
    else name

type namer = {
  used : (string, int) Hashtbl.t;
}

let fresh namer base =
  match Hashtbl.find_opt namer.used base with
  | None ->
      Hashtbl.replace namer.used base 1;
      base
  | Some n ->
      Hashtbl.replace namer.used base (n + 1);
      base ^ string_of_int (n + 1)

let prim_default = function
  | Jtype.Boolean -> "false"
  | Jtype.Char -> "'\\0'"
  | Jtype.Float | Jtype.Double -> "0.0"
  | Jtype.Byte | Jtype.Short | Jtype.Int | Jtype.Long -> "0"

let safe_name base =
  if base = "class" then "clazz"
  else if is_keyword base then base ^ "_"
  else base

(* Statements go into [buf] in emission order. A statement's right-hand
   side is assembled in [rhs] first, because rendering its arguments can
   declare free variables, and those declarations must land in [buf] ahead
   of the statement that uses them. Names are drawn in the order the
   statements read: free slots left to right, then the statement's own
   variable. *)
let generate ?input ?(qualified = false) (j : Jungloid.t) =
  let tyname = if qualified then Jtype.to_string else Jtype.simple_string in
  let cname = if qualified then Qname.to_string else Qname.simple in
  let namer = { used = Hashtbl.create 16 } in
  let buf = Buffer.create 256 in
  let rhs = Buffer.create 64 in
  let frees = ref [] in
  let input_var =
    match (input, j.Jungloid.input) with
    | _, Jtype.Void -> ""
    | Some (name, _), _ ->
        Hashtbl.replace namer.used name 1;
        name
    | None, ty ->
        let name = fresh namer (var_name_of_type ty) in
        name
  in
  (* A free slot becomes either a default literal (primitives) or a declared
     variable the user must fill (references). *)
  let free_slot (pname, ty) =
    match ty with
    | Jtype.Prim p -> prim_default p
    | _ ->
        let base =
          if String.length pname > 0 && not (String.length pname > 3 && String.sub pname 0 3 = "arg")
          then safe_name pname
          else var_name_of_type ty
        in
        let v = fresh namer base in
        Buffer.add_string buf (tyname ty);
        Buffer.add_char buf ' ';
        Buffer.add_string buf v;
        Buffer.add_string buf "; // free variable\n";
        frees := (v, ty) :: !frees;
        v
  in
  let add_args params ~input_slot ~expr =
    Buffer.add_char rhs '(';
    List.iteri
      (fun i (pname, ty) ->
        if i > 0 then Buffer.add_string rhs ", ";
        match input_slot with
        | Elem.Param j when i = j -> Buffer.add_string rhs expr
        | _ -> Buffer.add_string rhs (free_slot (pname, ty)))
      params;
    Buffer.add_char rhs ')'
  in
  let add_call target name =
    Buffer.add_string rhs target;
    Buffer.add_char rhs '.';
    Buffer.add_string rhs name
  in
  (* emit [ty v = <rhs>;] and start the next right-hand side *)
  let emit_stmt ty =
    let v = fresh namer (var_name_of_type ty) in
    Buffer.add_string buf (tyname ty);
    Buffer.add_char buf ' ';
    Buffer.add_string buf v;
    Buffer.add_string buf " = ";
    Buffer.add_buffer buf rhs;
    Buffer.add_string buf ";\n";
    Buffer.clear rhs;
    v
  in
  let final_var =
    List.fold_left
      (fun cur e ->
        match e with
        | Elem.Widen _ -> cur
        | Elem.Downcast { to_; _ } ->
            Buffer.add_char rhs '(';
            Buffer.add_string rhs (tyname to_);
            Buffer.add_string rhs ") ";
            Buffer.add_string rhs cur;
            emit_stmt to_
        | Elem.Field_access { owner; field } ->
            add_call
              (if field.Member.fstatic then cname owner else cur)
              field.Member.fname;
            emit_stmt field.Member.ftype
        | Elem.Static_call { owner; meth; input = slot } ->
            add_call (cname owner) meth.Member.mname;
            add_args meth.Member.params ~input_slot:slot ~expr:cur;
            emit_stmt meth.Member.ret
        | Elem.Ctor_call { owner; ctor; input = slot } ->
            Buffer.add_string rhs "new ";
            Buffer.add_string rhs (cname owner);
            add_args ctor.Member.cparams ~input_slot:slot ~expr:cur;
            emit_stmt (Jtype.ref_ owner)
        | Elem.Instance_call { owner; meth; input = slot } ->
            let recv =
              match slot with
              | Elem.Receiver -> cur
              | _ -> free_slot ("receiver", Jtype.ref_ owner)
            in
            add_call recv meth.Member.mname;
            add_args meth.Member.params ~input_slot:slot ~expr:cur;
            emit_stmt meth.Member.ret)
      input_var j.Jungloid.elems
  in
  { code = Buffer.contents buf; result_var = final_var; free_var_names = List.rev !frees }

let to_java ?input ?qualified j = (generate ?input ?qualified j).code
