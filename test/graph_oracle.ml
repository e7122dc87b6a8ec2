(* Reference signature-graph builder for the graph-build oracle tests: the
   original construction, which derives every declaration's elems without
   deduping them and lets [Graph.add_edge]'s global table drop repeats.
   {!Prospector.Sig_graph.build} dedups per declaration and appends; the two
   must agree on node ids, row order, edge count and generation. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Sig_graph = Prospector.Sig_graph

let is_obj_or_string = function
  | Jtype.Ref q ->
      Qname.equal q Qname.object_qname || Qname.equal q Qname.string_qname
  | _ -> false

let vis_ok config = function
  | Member.Public -> true
  | Member.Protected -> config.Sig_graph.include_protected
  | Member.Private | Member.Package -> false

(* Indices of parameters usable as the elementary jungloid's input. With
   [restrict_obj_string_params], Object- and String-typed positions are
   excluded: Section 4.3 observes that "usually not any Object or String is
   acceptable", so those edges come only from mined examples. *)
let ref_param_indices config params =
  List.concat
    (List.mapi
       (fun i (_, ty) ->
         if
           Jtype.is_reference ty
           && not (config.Sig_graph.restrict_obj_string_params && is_obj_or_string ty)
         then [ i ]
         else [])
       params)

let elems_of_decl ?(config = Sig_graph.default_config) (d : Decl.t) =
  let acc = ref [] in
  let push e =
    if Jtype.is_reference (Elem.output_type e) then acc := e :: !acc
  in
  List.iter
    (fun (f : Member.field) ->
      if vis_ok config f.Member.fvis then push (Elem.Field_access { owner = d.dname; field = f }))
    d.fields;
  List.iter
    (fun (m : Member.meth) ->
      if vis_ok config m.Member.mvis && (config.Sig_graph.include_deprecated || not m.Member.mdeprecated)
      then
        if m.Member.mstatic then begin
          match ref_param_indices config m.Member.params with
          | [] -> push (Elem.Static_call { owner = d.dname; meth = m; input = Elem.No_input })
          | idxs ->
              List.iter
                (fun i ->
                  push (Elem.Static_call { owner = d.dname; meth = m; input = Elem.Param i }))
                idxs
        end
        else begin
          (* The receiver is treated as another parameter (Section 2.1). *)
          push (Elem.Instance_call { owner = d.dname; meth = m; input = Elem.Receiver });
          List.iter
            (fun i ->
              push (Elem.Instance_call { owner = d.dname; meth = m; input = Elem.Param i }))
            (ref_param_indices config m.Member.params)
        end)
    d.methods;
  if Decl.instantiable d then
    List.iter
      (fun (c : Member.ctor) ->
        if vis_ok config c.Member.cvis then
          match ref_param_indices config c.Member.cparams with
          | [] -> push (Elem.Ctor_call { owner = d.dname; ctor = c; input = Elem.No_input })
          | idxs ->
              List.iter
                (fun i ->
                  push (Elem.Ctor_call { owner = d.dname; ctor = c; input = Elem.Param i }))
                idxs)
      d.ctors;
  List.rev !acc

let build ?(config = Sig_graph.default_config) h =
  let g = Graph.create () in
  ignore (Graph.void_node g);
  (* Real type nodes for every declaration. *)
  Hierarchy.iter h (fun d -> ignore (Graph.ensure_type_node g (Jtype.ref_ d.Decl.dname)));
  (* Member edges; interning creates array-type nodes on the fly. *)
  Hierarchy.iter h (fun d ->
      List.iter
        (fun elem ->
          let src = Graph.ensure_type_node g (Elem.input_type elem) in
          let dst = Graph.ensure_type_node g (Elem.output_type elem) in
          Graph.add_edge g ~src elem ~dst)
        (elems_of_decl ~config d));
  (* Widening edges between declared types. *)
  Hierarchy.iter h (fun d ->
      let from_ = Jtype.ref_ d.Decl.dname in
      let src = Graph.ensure_type_node g from_ in
      List.iter
        (fun sup ->
          let to_ = Jtype.ref_ sup in
          let dst = Graph.ensure_type_node g to_ in
          Graph.add_edge g ~src (Elem.Widen { from_; to_ }) ~dst)
        (Hierarchy.direct_supers h d.Decl.dname));
  (* Widening for array nodes: covariance between present array types, and
     every array widens to Object. *)
  let arrays =
    List.filter (fun (ty, _) -> match ty with Jtype.Array _ -> true | _ -> false)
      (Graph.real_nodes g)
  in
  let obj = Graph.ensure_type_node g Jtype.object_t in
  List.iter
    (fun (a_ty, a_id) ->
      Graph.add_edge g ~src:a_id (Elem.Widen { from_ = a_ty; to_ = Jtype.object_t }) ~dst:obj;
      List.iter
        (fun (b_ty, b_id) ->
          if (not (Jtype.equal a_ty b_ty)) && Hierarchy.is_subtype h a_ty b_ty then
            Graph.add_edge g ~src:a_id (Elem.Widen { from_ = a_ty; to_ = b_ty }) ~dst:b_id)
        arrays)
    arrays;
  g

