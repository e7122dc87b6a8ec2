let log_src = Logs.Src.create "prospector.japi" ~doc:"API signature loading"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

type resolver = {
  declared : (string, Qname.t) Hashtbl.t;  (* full dotted name -> qname *)
  by_simple : (string, Qname.t list) Hashtbl.t;
}

let build_resolver rfiles =
  let declared = Hashtbl.create 256 in
  let by_simple = Hashtbl.create 256 in
  List.iter
    (fun (rf : Ast.rfile) ->
      List.iter
        (fun (d : Ast.rdecl) ->
          let q = Qname.make ~pkg:rf.package d.name in
          let full = Qname.to_string q in
          if Hashtbl.mem declared full then
            Error.fail ~file:rf.src_file ~line:d.decl_line ~col:1
              (Printf.sprintf "duplicate declaration of %s" full);
          Hashtbl.replace declared full q;
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_simple d.name) in
          Hashtbl.replace by_simple d.name (q :: existing))
        rf.decls)
    rfiles;
  { declared; by_simple }

let simple_of_dotted s =
  match List.rev (String.split_on_char '.' s) with
  | last :: _ -> last
  | [] -> s

let resolve_name r (rf : Ast.rfile) ~line name =
  if String.contains name '.' then Qname.of_string name
  else
    let in_pkg = Qname.make ~pkg:rf.package name in
    if Hashtbl.mem r.declared (Qname.to_string in_pkg) then in_pkg
    else
      let from_import =
        List.find_opt (fun imp -> String.equal (simple_of_dotted imp) name) rf.imports
      in
      match from_import with
      | Some imp -> Qname.of_string imp
      | None -> (
          match Option.value ~default:[] (Hashtbl.find_opt r.by_simple name) with
          | [ q ] -> q
          | [] ->
              if String.equal name "Object" then Qname.object_qname
              else if String.equal name "String" then Qname.string_qname
              else in_pkg
          | qs ->
              Error.fail ~file:rf.src_file ~line ~col:1
                (Printf.sprintf "ambiguous type name '%s': could be %s" name
                   (String.concat " or " (List.map Qname.to_string qs))))

(* [types] memoizes resolved base types per file: a name resolves the same
   way everywhere in one file, so each distinct name is resolved once and
   its [Jtype.t] shared by every mention. Errors are never memoized, so the
   first failing mention still reports. *)
let resolve_type r rf types ~line (rt : Ast.rtype) =
  let base =
    match Hashtbl.find_opt types rt.base with
    | Some ty -> ty
    | None ->
        let ty =
          if String.equal rt.base "void" then Jtype.Void
          else
            match Jtype.prim_of_string rt.base with
            | Some p -> Jtype.Prim p
            | None -> Jtype.Ref (resolve_name r rf ~line rt.base)
        in
        Hashtbl.add types rt.base ty;
        ty
  in
  let rec wrap ty n = if n = 0 then ty else wrap (Jtype.Array ty) (n - 1) in
  wrap base rt.dims

let resolve_params r rf types ~line params =
  List.mapi
    (fun i (p : Ast.rparam) ->
      let name =
        match p.pname with Some n -> n | None -> Printf.sprintf "arg%d" i
      in
      (name, resolve_type r rf types ~line p.ptype))
    params

let resolve_decl r (rf : Ast.rfile) types (d : Ast.rdecl) =
  let line = d.decl_line in
  let fields, methods, ctors =
    List.fold_left
      (fun (fs, ms, cs) m ->
        match m with
        | Ast.Rfield { vis; static; typ; name } ->
            ( Member.field ~vis ~static name (resolve_type r rf types ~line typ) :: fs,
              ms,
              cs )
        | Ast.Rmeth { vis; static; deprecated; ret; name; params } ->
            ( fs,
              Member.meth ~vis ~static ~deprecated name
                ~params:(resolve_params r rf types ~line params)
                ~ret:(resolve_type r rf types ~line ret)
              :: ms,
              cs )
        | Ast.Rctor { vis; params } ->
            (fs, ms, Member.ctor ~vis (resolve_params r rf types ~line params) :: cs))
      ([], [], []) d.members
  in
  Decl.make ~kind:d.kind ~abstract:d.abstract
    ~extends:(List.map (resolve_name r rf ~line) d.extends)
    ~implements:(List.map (resolve_name r rf ~line) d.implements)
    ~fields:(List.rev fields) ~methods:(List.rev methods) ~ctors:(List.rev ctors)
    (Qname.make ~pkg:rf.package d.name)

let validate_kinds h r rfiles =
  let fail_decl (rf : Ast.rfile) (d : Ast.rdecl) msg =
    Error.fail ~file:rf.src_file ~line:d.decl_line ~col:1 msg
  in
  List.iter
    (fun (rf : Ast.rfile) ->
      List.iter
        (fun (d : Ast.rdecl) ->
          let check_target kind_needed role name =
            let q = resolve_name r rf ~line:d.decl_line name in
            match Hierarchy.find_opt h q with
            | Some target when not target.Decl.synthetic ->
                if target.Decl.kind <> kind_needed then
                  fail_decl rf d
                    (Printf.sprintf "%s %s %s %s, which is not %s" d.name role
                       (match kind_needed with
                       | Decl.Class -> "class"
                       | Decl.Interface -> "interface")
                       (Qname.to_string q)
                       (match kind_needed with
                       | Decl.Class -> "a class"
                       | Decl.Interface -> "an interface"))
            | _ -> ()
          in
          (match d.kind with
          | Decl.Class ->
              List.iter (check_target Decl.Class "extends") d.extends;
              List.iter (check_target Decl.Interface "implements") d.implements
          | Decl.Interface ->
              List.iter (check_target Decl.Interface "extends") d.extends);
          (* Interfaces cannot declare constructors. *)
          if
            d.kind = Decl.Interface
            && List.exists (function Ast.Rctor _ -> true | _ -> false) d.members
          then fail_decl rf d (Printf.sprintf "interface %s declares a constructor" d.name);
          (* Cycle check: the declaration must not appear in its own strict
             supertype set. *)
          let q = Qname.make ~pkg:rf.package d.name in
          if Qname.Set.mem q (Hierarchy.supers h q) then
            fail_decl rf d
              (Printf.sprintf "inheritance cycle through %s" (Qname.to_string q)))
        rf.decls)
    rfiles

let load_rfiles rfiles =
  let r = build_resolver rfiles in
  let decls =
    List.concat_map
      (fun (rf : Ast.rfile) ->
        let types = Hashtbl.create 64 in
        List.map (resolve_decl r rf types) rf.decls)
      rfiles
  in
  let h = Hierarchy.of_decls decls in
  validate_kinds h r rfiles;
  Log.info (fun m ->
      m "loaded %d declarations from %d files (hierarchy size %d incl. placeholders)"
        (List.length decls) (List.length rfiles) (Hierarchy.size h));
  h

let load_files sources =
  let rfiles = List.map (fun (file, src) -> Parser.parse ~file src) sources in
  load_rfiles rfiles

let load_string ?(file = "<string>") src = load_files [ (file, src) ]
