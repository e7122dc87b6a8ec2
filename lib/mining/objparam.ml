module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname

let is_obj_or_string ty =
  match ty with
  | Jtype.Ref q -> Qname.equal q Qname.object_qname || Qname.equal q Qname.string_qname
  | _ -> false

type stats = {
  sites : int;
  examples_extracted : int;
  examples_after_generalization : int;
  edges_added : int;
}

let enrich ?max_per_cast ?max_len ?(generalize = true) ?min_keep
    ?(is_target = is_obj_or_string) g prog =
  let df = Analysis.Dataflow.build prog in
  let examples = Extract.extract_for_arg ?max_per_cast ?max_len df ~is_target in
  let sites =
    List.length
      (List.sort_uniq compare (List.map (fun (e : Extract.example) -> e.Extract.origin) examples))
  in
  let final = if generalize then Generalize.run ?min_keep examples else examples in
  let edges_added, _ = Enrich.add_examples g final in
  {
    sites;
    examples_extracted = List.length examples;
    examples_after_generalization = List.length final;
    edges_added;
  }
