module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Elem = Prospector.Elem
module Graph = Prospector.Graph

let rec base_prim_or_ref ty =
  match ty with
  | Jtype.Array t -> base_prim_or_ref t
  | other -> other

let is_voidish ty = match base_prim_or_ref ty with Jtype.Void -> true | _ -> false

let param_sig params = List.map (fun (_, ty) -> ty) params

let dup_by key xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then true
      else (
        Hashtbl.add seen k ();
        false))
    xs

let lint_hierarchy h =
  let diags = ref [] in
  let report sev code subject msg =
    diags := Diagnostic.about sev ~code ~subject msg :: !diags
  in
  Hierarchy.iter h (fun d ->
      if not d.Decl.synthetic then begin
        let subject = Qname.to_string d.Decl.dname in
        (* A001: mentions of types the model does not declare. *)
        Qname.Set.iter
          (fun q ->
            match Hierarchy.find_opt h q with
            | Some { Decl.synthetic = false; _ } -> ()
            | Some { Decl.synthetic = true; _ } ->
                report Diagnostic.Info "A001" subject
                  (Printf.sprintf "references %s, which the model treats as opaque"
                     (Qname.to_string q))
            | None ->
                report Diagnostic.Warning "A001" subject
                  (Printf.sprintf "references undeclared type %s (hierarchy not closed)"
                     (Qname.to_string q)))
          (Hierarchy.referenced_qnames d);
        (* A002: duplicate members within one declaration. *)
        List.iter
          (fun (f : Member.field) ->
            report Diagnostic.Error "A002" subject
              (Printf.sprintf "field '%s' declared more than once" f.Member.fname))
          (dup_by (fun (f : Member.field) -> f.Member.fname) d.Decl.fields);
        List.iter
          (fun (m : Member.meth) ->
            report Diagnostic.Error "A002" subject
              (Printf.sprintf "method '%s' declared more than once"
                 (Member.meth_signature_string m)))
          (dup_by
             (fun (m : Member.meth) -> (m.Member.mname, param_sig m.Member.params))
             d.Decl.methods);
        List.iter
          (fun (c : Member.ctor) ->
            report Diagnostic.Error "A002" subject
              (Printf.sprintf "constructor with %d parameters declared more than once"
                 (List.length c.Member.cparams)))
          (dup_by (fun (c : Member.ctor) -> param_sig c.Member.cparams) d.Decl.ctors);
        (* A003: members an interface cannot have. *)
        if Decl.is_interface d then begin
          if d.Decl.ctors <> [] then
            report Diagnostic.Error "A003" subject "interface declares a constructor";
          List.iter
            (fun (f : Member.field) ->
              if not f.Member.fstatic then
                report Diagnostic.Warning "A003" subject
                  (Printf.sprintf "interface declares instance field '%s'"
                     f.Member.fname))
            d.Decl.fields
        end;
        (* A004: extends/implements clauses must respect declaration kinds. *)
        let kind_of q =
          match Hierarchy.find_opt h q with
          | Some t when not t.Decl.synthetic -> Some t.Decl.kind
          | _ -> None
        in
        List.iter
          (fun q ->
            match (d.Decl.kind, kind_of q) with
            | Decl.Class, Some Decl.Interface ->
                report Diagnostic.Error "A004" subject
                  (Printf.sprintf "class extends interface %s" (Qname.to_string q))
            | Decl.Interface, Some Decl.Class ->
                report Diagnostic.Error "A004" subject
                  (Printf.sprintf "interface extends class %s" (Qname.to_string q))
            | _ -> ())
          d.Decl.extends;
        List.iter
          (fun q ->
            match kind_of q with
            | Some Decl.Class ->
                report Diagnostic.Error "A004" subject
                  (Printf.sprintf "implements clause names class %s" (Qname.to_string q))
            | _ -> ())
          d.Decl.implements;
        (* A005: [void] only makes sense as a return type. *)
        List.iter
          (fun (f : Member.field) ->
            if is_voidish f.Member.ftype then
              report Diagnostic.Error "A005" subject
                (Printf.sprintf "field '%s' has type void" f.Member.fname))
          d.Decl.fields;
        let check_params what params =
          List.iter
            (fun (_, ty) ->
              if is_voidish ty then
                report Diagnostic.Error "A005" subject
                  (Printf.sprintf "%s takes a void parameter" what))
            params
        in
        List.iter
          (fun (m : Member.meth) ->
            check_params
              (Printf.sprintf "method '%s'" m.Member.mname)
              m.Member.params)
          d.Decl.methods;
        List.iter
          (fun (c : Member.ctor) -> check_params "constructor" c.Member.cparams)
          d.Decl.ctors
      end);
  List.sort Diagnostic.compare !diags

let edge_subject g (e : Graph.edge) =
  Printf.sprintf "edge %s -> %s (%s)"
    (Jtype.simple_string (Graph.node_type g e.Graph.src))
    (Jtype.simple_string (Graph.node_type g e.Graph.dst))
    (Elem.describe e.Graph.elem)

let lint_graph h g =
  let diags = ref [] in
  let report sev code subject msg =
    diags := Diagnostic.about sev ~code ~subject msg :: !diags
  in
  let seen_edges = Hashtbl.create 1024 in
  let degree = Hashtbl.create 1024 in
  let bump n = Hashtbl.replace degree n (1 + Option.value ~default:0 (Hashtbl.find_opt degree n)) in
  Graph.iter_edges g (fun e ->
      let subject = edge_subject g e in
      bump e.Graph.src;
      bump e.Graph.dst;
      (* A012: duplicates. [Graph.add_edge] drops them, but
         [Graph.append_edge] takes the caller's word — the signature
         build's per-declaration dedup — so this catches a broken build. *)
      let key = (e.Graph.src, e.Graph.dst, e.Graph.elem) in
      if Hashtbl.mem seen_edges key then
        report Diagnostic.Warning "A012" subject "duplicate edge"
      else Hashtbl.add seen_edges key ();
      (match e.Graph.elem with
      | Elem.Widen { from_; to_ } ->
          (* A010: the graph claims a widening conversion the hierarchy
             does not back. *)
          if not (Hierarchy.is_subtype h from_ to_) then
            report Diagnostic.Error "A010" subject
              (Printf.sprintf "%s is not a subtype of %s" (Jtype.to_string from_)
                 (Jtype.to_string to_));
          if Jtype.equal from_ to_ then
            report Diagnostic.Warning "A011" subject "self-loop widening edge"
      | Elem.Downcast { from_; to_ } ->
          if Jtype.equal from_ to_ then
            report Diagnostic.Warning "A011" subject "self-loop downcast edge"
      | _ -> ());
      (* A014: endpoint node types must agree with the elementary jungloid;
         [input_type] can raise on a malformed parameter slot. *)
      match
        (try Some (Elem.input_type e.Graph.elem) with _ -> None)
      with
      | None -> report Diagnostic.Error "A014" subject "malformed input slot"
      | Some it ->
          if not (Jtype.equal (Graph.node_type g e.Graph.src) it) then
            report Diagnostic.Error "A014" subject
              (Printf.sprintf "source node is %s but the step consumes %s"
                 (Jtype.to_string (Graph.node_type g e.Graph.src))
                 (Jtype.to_string it));
          let ot = Elem.output_type e.Graph.elem in
          if not (Jtype.equal (Graph.node_type g e.Graph.dst) ot) then
            report Diagnostic.Error "A014" subject
              (Printf.sprintf "destination node is %s but the step produces %s"
                 (Jtype.to_string (Graph.node_type g e.Graph.dst))
                 (Jtype.to_string ot)));
  (* A013: types no elementary jungloid produces or consumes. *)
  List.iter
    (fun (ty, n) ->
      if (not (Hashtbl.mem degree n)) && not (Jtype.equal ty Jtype.Void) then
        report Diagnostic.Info "A013" (Jtype.to_string ty)
          "orphan type: no elementary jungloid reaches or leaves it")
    (Graph.real_nodes g);
  List.sort Diagnostic.compare !diags

let lint ?graph h =
  let base = lint_hierarchy h in
  match graph with
  | None -> base
  | Some g -> List.sort Diagnostic.compare (base @ lint_graph h g)
