module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy

type t = {
  input : Jtype.t;
  elems : Elem.t list;
}

let make ~input elems =
  if elems = [] then invalid_arg "Jungloid.make: empty";
  { input; elems }

let of_frozen_path fz (p : Search.path) =
  make
    ~input:(Graph.frozen_node_type fz p.Search.source)
    (List.map (fun e -> e.Graph.elem) p.Search.edges)

let input_type t = t.input

let output_type t =
  match List.rev t.elems with
  | last :: _ -> Elem.output_type last
  | [] -> t.input

let length t =
  List.fold_left (fun acc e -> acc + Elem.cost e) 0 t.elems

let free_vars t = List.concat_map Elem.free_vars t.elems

let contains_downcast t = List.exists Elem.is_downcast t.elems

let is_interface_ref h ty =
  match ty with
  | Jtype.Ref q -> (
      match Hierarchy.find_opt h q with
      | Some d -> Decl.is_interface d
      | None -> false)
  | _ -> false

let well_typed h t =
  let rec steps prev = function
    | [] -> true
    | e :: rest ->
        Jtype.equal prev (Elem.input_type e)
        && (match e with
           | Elem.Widen { from_; to_ } -> Hierarchy.is_subtype h from_ to_
           | Elem.Downcast { from_; to_ } ->
               Hierarchy.is_subtype h to_ from_
               || is_interface_ref h from_ || is_interface_ref h to_
           | _ -> true)
        && steps (Elem.output_type e) rest
  in
  steps t.input t.elems

(* The renderers write into one Buffer. An element's rendering wraps the
   rendering of the elements before it (a receiver, an argument, a cast
   operand), so [add_expr] walks the elements last-first and renders the
   inner prefix in place through [inner]. *)
let prim_literal = function
  | Jtype.Boolean -> "false"
  | Jtype.Char -> "'\\0'"
  | Jtype.Float | Jtype.Double -> "0.0"
  | Jtype.Byte | Jtype.Short | Jtype.Int | Jtype.Long -> "0"

let add_args buf params ~input ~inner =
  Buffer.add_char buf '(';
  List.iteri
    (fun i (name, ty) ->
      if i > 0 then Buffer.add_string buf ", ";
      match input with
      | Elem.Param j when i = j -> inner ()
      | _ -> (
          match ty with
          | Jtype.Prim p -> Buffer.add_string buf (prim_literal p)
          | _ -> Buffer.add_string buf name))
    params;
  Buffer.add_char buf ')'

let rec add_expr buf ~start = function
  | [] -> Buffer.add_string buf start
  | e :: before -> (
      let inner () = add_expr buf ~start before in
      match e with
      | Elem.Field_access { owner; field } ->
          if field.Member.fstatic then Buffer.add_string buf (Qname.simple owner)
          else inner ();
          Buffer.add_char buf '.';
          Buffer.add_string buf field.Member.fname
      | Elem.Static_call { owner; meth; input } ->
          Buffer.add_string buf (Qname.simple owner);
          Buffer.add_char buf '.';
          Buffer.add_string buf meth.Member.mname;
          add_args buf meth.Member.params ~input ~inner
      | Elem.Ctor_call { owner; ctor; input } ->
          Buffer.add_string buf "new ";
          Buffer.add_string buf (Qname.simple owner);
          add_args buf ctor.Member.cparams ~input ~inner
      | Elem.Instance_call { meth; input; _ } ->
          (match input with
          | Elem.Receiver -> inner ()
          | _ -> Buffer.add_string buf "receiver");
          Buffer.add_char buf '.';
          Buffer.add_string buf meth.Member.mname;
          add_args buf meth.Member.params
            ~input:(match input with Elem.Receiver -> Elem.No_input | i -> i)
            ~inner
      | Elem.Widen _ -> inner ()
      | Elem.Downcast { to_; _ } ->
          Buffer.add_string buf "((";
          Buffer.add_string buf (Jtype.simple_string to_);
          Buffer.add_string buf ") ";
          inner ();
          Buffer.add_char buf ')')

let start_var t = match t.input with Jtype.Void -> "" | _ -> "x"

let to_expression t =
  let buf = Buffer.create 64 in
  add_expr buf ~start:(start_var t) (List.rev t.elems);
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (match t.input with Jtype.Void -> "λ(). " | _ -> "λx. ");
  add_expr buf ~start:(start_var t) (List.rev t.elems);
  Buffer.add_string buf " : ";
  Buffer.add_string buf (Jtype.simple_string t.input);
  Buffer.add_string buf " -> ";
  Buffer.add_string buf (Jtype.simple_string (output_type t));
  Buffer.contents buf

let compare = Stdlib.compare

let equal a b = compare a b = 0
