(* Reference renderers: the Printf-built Jungloid.to_expression /
   Jungloid.to_string and Codegen.generate that the library's Buffer-built
   versions replaced, kept as the oracle the render suites compare against
   byte for byte. Deliberately the plain spelling — every step a sprintf or
   a string concatenation, keywords looked up with List.mem — and the same
   evaluation order, so fresh variable names come out identical. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Elem = Prospector.Elem
module Jungloid = Prospector.Jungloid

(* ---------- Jungloid.to_expression / to_string ---------- *)

let render_args params ~input ~expr =
  let arg i (name, ty) =
    match input with
    | Elem.Param j when i = j -> expr
    | _ -> (
        match ty with
        | Jtype.Prim p -> (
            match p with
            | Jtype.Boolean -> "false"
            | Jtype.Char -> "'\\0'"
            | Jtype.Float | Jtype.Double -> "0.0"
            | _ -> "0")
        | _ -> name)
  in
  "(" ^ String.concat ", " (List.mapi arg params) ^ ")"

let to_expression (t : Jungloid.t) =
  let start = match t.Jungloid.input with Jtype.Void -> "" | _ -> "x" in
  List.fold_left
    (fun expr e ->
      match e with
      | Elem.Field_access { owner; field } ->
          if field.Member.fstatic then
            Printf.sprintf "%s.%s" (Qname.simple owner) field.Member.fname
          else Printf.sprintf "%s.%s" expr field.Member.fname
      | Elem.Static_call { owner; meth; input } ->
          Printf.sprintf "%s.%s%s" (Qname.simple owner) meth.Member.mname
            (render_args meth.Member.params ~input ~expr)
      | Elem.Ctor_call { owner; ctor; input } ->
          Printf.sprintf "new %s%s" (Qname.simple owner)
            (render_args ctor.Member.cparams ~input ~expr)
      | Elem.Instance_call { meth; input; _ } -> (
          match input with
          | Elem.Receiver ->
              Printf.sprintf "%s.%s%s" expr meth.Member.mname
                (render_args meth.Member.params ~input:Elem.No_input ~expr)
          | _ ->
              Printf.sprintf "receiver.%s%s" meth.Member.mname
                (render_args meth.Member.params ~input ~expr))
      | Elem.Widen _ -> expr
      | Elem.Downcast { to_; _ } ->
          Printf.sprintf "((%s) %s)" (Jtype.simple_string to_) expr)
    start t.Jungloid.elems

let to_string (t : Jungloid.t) =
  let binder = match t.Jungloid.input with Jtype.Void -> "λ(). " | _ -> "λx. " in
  Printf.sprintf "%s%s : %s -> %s" binder (to_expression t)
    (Jtype.simple_string t.Jungloid.input)
    (Jtype.simple_string (Jungloid.output_type t))

(* ---------- Codegen.generate ---------- *)

let keywords =
  [
    "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch"; "char";
    "class"; "const"; "continue"; "default"; "do"; "double"; "else"; "enum";
    "extends"; "false"; "final"; "finally"; "float"; "for"; "goto"; "if";
    "implements"; "import"; "instanceof"; "int"; "interface"; "long"; "native";
    "new"; "null"; "package"; "private"; "protected"; "public"; "return";
    "short"; "static"; "strictfp"; "super"; "switch"; "synchronized"; "this";
    "throw"; "throws"; "transient"; "true"; "try"; "void"; "volatile"; "while";
  ]

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
    else if List.mem name keywords then name ^ "_"
    else name

let fresh used base =
  match Hashtbl.find_opt used base with
  | None ->
      Hashtbl.replace used base 1;
      base
  | Some n ->
      Hashtbl.replace used base (n + 1);
      Printf.sprintf "%s%d" base (n + 1)

let prim_default = function
  | Jtype.Boolean -> "false"
  | Jtype.Char -> "'\\0'"
  | Jtype.Float | Jtype.Double -> "0.0"
  | Jtype.Byte | Jtype.Short | Jtype.Int | Jtype.Long -> "0"

let safe_name base =
  if base = "class" then "clazz"
  else if List.mem base keywords then base ^ "_"
  else base

(* (code, result_var, free_var_names), as Codegen.generate returns them *)
let generate ?input ?(qualified = false) (j : Jungloid.t) =
  let tyname = if qualified then Jtype.to_string else Jtype.simple_string in
  let cname = if qualified then Qname.to_string else Qname.simple in
  let used = Hashtbl.create 16 in
  let buf = Buffer.create 256 in
  let frees = ref [] in
  let input_var =
    match (input, j.Jungloid.input) with
    | _, Jtype.Void -> ""
    | Some (name, _), _ ->
        Hashtbl.replace used name 1;
        name
    | None, ty -> fresh used (var_name_of_type ty)
  in
  let free_slot (pname, ty) =
    match ty with
    | Jtype.Prim p -> prim_default p
    | _ ->
        let base =
          if String.length pname > 0 && not (String.length pname > 3 && String.sub pname 0 3 = "arg")
          then safe_name pname
          else var_name_of_type ty
        in
        let v = fresh used base in
        Buffer.add_string buf (Printf.sprintf "%s %s; // free variable\n" (tyname ty) v);
        frees := (v, ty) :: !frees;
        v
  in
  let render_args params ~input_slot ~expr =
    let arg i (pname, ty) =
      match input_slot with
      | Elem.Param j when i = j -> expr
      | _ -> free_slot (pname, ty)
    in
    "(" ^ String.concat ", " (List.mapi arg params) ^ ")"
  in
  let emit_stmt ty rhs =
    let v = fresh used (var_name_of_type ty) in
    Buffer.add_string buf (Printf.sprintf "%s %s = %s;\n" (tyname ty) v rhs);
    v
  in
  let final_var =
    List.fold_left
      (fun cur e ->
        match e with
        | Elem.Widen _ -> cur
        | Elem.Downcast { to_; _ } ->
            emit_stmt to_ (Printf.sprintf "(%s) %s" (tyname to_) cur)
        | Elem.Field_access { owner; field } ->
            let rhs =
              if field.Member.fstatic then
                Printf.sprintf "%s.%s" (cname owner) field.Member.fname
              else Printf.sprintf "%s.%s" cur field.Member.fname
            in
            emit_stmt field.Member.ftype rhs
        | Elem.Static_call { owner; meth; input = slot } ->
            emit_stmt meth.Member.ret
              (Printf.sprintf "%s.%s%s" (cname owner) meth.Member.mname
                 (render_args meth.Member.params ~input_slot:slot ~expr:cur))
        | Elem.Ctor_call { owner; ctor; input = slot } ->
            emit_stmt (Jtype.ref_ owner)
              (Printf.sprintf "new %s%s" (cname owner)
                 (render_args ctor.Member.cparams ~input_slot:slot ~expr:cur))
        | Elem.Instance_call { owner; meth; input = slot } ->
            let recv =
              match slot with
              | Elem.Receiver -> cur
              | _ -> free_slot ("receiver", Jtype.ref_ owner)
            in
            emit_stmt meth.Member.ret
              (Printf.sprintf "%s.%s%s" recv meth.Member.mname
                 (render_args meth.Member.params ~input_slot:slot ~expr:cur)))
      input_var j.Jungloid.elems
  in
  (Buffer.contents buf, final_var, List.rev !frees)
