(* The cold path from .japi bytes to a signature graph, against reference
   implementations kept in this directory. The streaming lexer/parser must
   match the array-based front end ({!Japi_oracle}) on every input — the
   same tokens and AST, or the same located error — including hostile,
   mutated files. The per-declaration-dedup graph builder must match the
   global-table builder ({!Graph_oracle}) node for node and row for row. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Sig_graph = Prospector.Sig_graph
module Delta = Prospector.Delta
module Apigen = Corpusgen.Apigen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- front end ---------- *)

let small_world =
  Japi.Printer.print_files
    (Apigen.generate { Apigen.default_params with classes = 40; packages = 3; seed = 7 })

let seeds = Array.of_list (Apidata.Api.api_sources @ small_world)

type 'a outcome = Value of 'a | Japi_error of Japi.Error.t | Raised of string

let outcome f =
  match f () with
  | v -> Value v
  | exception Japi.Error.E e -> Japi_error e
  | exception e -> Raised (Printexc.to_string e)

(* Declarations in iteration order: the order node ids derive from. *)
let decls_in_order h = List.rev (Hierarchy.fold h ~init:[] ~f:(fun acc d -> d :: acc))

let same_outcome eq a b =
  match (a, b) with
  | Value x, Value y -> eq x y
  | Japi_error x, Japi_error y -> x = y
  | Raised x, Raised y -> String.equal x y
  | _ -> false

let same_hierarchy a b = List.equal Decl.equal (decls_in_order a) (decls_in_order b)

(* Tokens, AST and loaded model of one file set, streaming vs oracle. *)
let agrees sources =
  List.for_all
    (fun (file, src) ->
      same_outcome ( = )
        (outcome (fun () -> Japi.Lexer.tokenize ~file src))
        (outcome (fun () -> Japi_oracle.tokenize ~file src))
      && same_outcome ( = )
           (outcome (fun () -> Japi.Parser.parse ~file src))
           (outcome (fun () -> Japi_oracle.parse ~file src)))
    sources
  &&
  same_outcome same_hierarchy
    (outcome (fun () -> Japi.Loader.load_files sources))
    (outcome (fun () -> Japi_oracle.load_files sources))

let test_seeds_agree () =
  check_bool "bundled sources" true (agrees Apidata.Api.api_sources);
  check_bool "printed Apigen world" true (agrees small_world)

let error_of src =
  match Japi.Loader.load_string src with
  | exception Japi.Error.E e -> e
  | _ -> Alcotest.fail "expected a Japi.Error.E"

(* A syntax error (the ';' where a member name belongs) comes before a bad
   character; the file is still lexically checked as a whole first. *)
let test_lexer_error_wins () =
  let bad = "class A {\n  int ;\n}\n#\n" in
  let e = error_of bad in
  check_bool "lexer error reported" true
    (e.Japi.Error.msg = "unexpected character '#'" && e.line = 4 && e.col = 1);
  check_bool "oracle agrees" true (agrees [ ("<string>", bad) ]);
  let e = error_of "class A {\n  int ;\n}\n" in
  check_bool "without it, the syntax error" true
    (e.Japi.Error.msg = "expected a member name but found ';'" && e.line = 2 && e.col = 7)

(* At end of input the parser does not step past Eof, so "expected 'class'"
   is reported at the last real token. *)
let test_eof_lookbehind () =
  let src = "class A { }\npublic abstract" in
  let e = error_of src in
  check_bool "reported at 'abstract'" true (e.Japi.Error.line = 2 && e.col = 8);
  check_bool "oracle agrees" true (agrees [ ("<string>", src) ])

type mutation = Flip of int * char | Truncate of int | Insert of int * string

let apply_mutation src = function
  | Flip (p, c) ->
      if String.length src = 0 then src
      else
        let p = p mod String.length src in
        String.mapi (fun i x -> if i = p then c else x) src
  | Truncate p -> String.sub src 0 (p mod (String.length src + 1))
  | Insert (p, s) ->
      let p = p mod (String.length src + 1) in
      String.sub src 0 p ^ s ^ String.sub src p (String.length src - p)

let mutation_gen =
  QCheck2.Gen.(
    let* p = int_bound 1_000_000 in
    oneof
      [
        map (fun c -> Flip (p, c)) char;
        return (Truncate p);
        map (fun s -> Insert (p, s)) (oneofl [ "#"; "/*"; "@" ]);
      ])

let mutant_gen =
  QCheck2.Gen.(
    let* i = int_bound (Array.length seeds - 1) in
    let* ms = list_size (int_range 1 3) mutation_gen in
    let file, src = seeds.(i) in
    return (file, List.fold_left apply_mutation src ms))

let prop_mutants_agree =
  QCheck2.Test.make ~name:"mutated .japi: streaming = array front end" ~count:300
    ~print:(fun (file, src) -> Printf.sprintf "%s (%d bytes)" file (String.length src))
    mutant_gen
    (fun (file, src) -> agrees [ (file, src) ])

(* ---------- graph build ---------- *)

let same_graph (a : Graph.t) (b : Graph.t) =
  Graph.node_count a = Graph.node_count b
  && Graph.edge_count a = Graph.edge_count b
  && Graph.generation a = Graph.generation b
  && List.for_all
       (fun u ->
         Jtype.equal (Graph.node_type a u) (Graph.node_type b u)
         && Graph.is_typestate a u = Graph.is_typestate b u
         && Graph.succs a u = Graph.succs b u
         && Graph.preds a u = Graph.preds b u)
       (Graph.nodes a)
  && Delta.frozen_equal (Graph.freeze a) (Graph.freeze b)
  && Graph.frozen_generation (Graph.freeze a) = Graph.frozen_generation (Graph.freeze b)

let configs =
  [
    Sig_graph.default_config;
    { Sig_graph.default_config with include_protected = true };
    { Sig_graph.default_config with include_deprecated = false; restrict_obj_string_params = true };
  ]

let builders_agree h =
  List.for_all
    (fun config -> same_graph (Sig_graph.build ~config h) (Graph_oracle.build ~config h))
    configs

let test_bundled_graph () =
  check_bool "bundled model" true (builders_agree (Apidata.Api.hierarchy ()))

let prop_apigen_graphs =
  QCheck2.Test.make ~name:"Apigen worlds: per-decl dedup build = global-table build"
    ~count:40
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 10 120) (float_range 0. 1.))
    (fun (seed, classes, locality) ->
      builders_agree
        (Apigen.generate
           { Apigen.default_params with classes; seed; locality; subclass_fraction = 0.5 }))

let dup_model =
  {|
  package p;
  interface I { }
  class A implements I, I {
    A();
    p.A self();
    p.A self();
    static p.A make(p.A a, p.A b);
    static p.A make(p.A a, p.A b);
    p.A[] all;
  }
  |}

let count_edges g pred =
  let n = ref 0 in
  Graph.iter_edges g (fun e -> if pred e.Graph.elem then incr n);
  !n

let test_duplicates_once () =
  let h = Japi.Loader.load_string dup_model in
  let g = Sig_graph.build h in
  let a = Jtype.ref_ (Qname.of_string "p.A") and i = Jtype.ref_ (Qname.of_string "p.I") in
  check_int "repeated direct super: one widening edge" 1
    (count_edges g (fun e -> Elem.equal e (Elem.Widen { from_ = a; to_ = i })));
  check_int "duplicated instance method: one edge" 1
    (count_edges g (function
      | Elem.Instance_call { meth; _ } -> meth.Javamodel.Member.mname = "self"
      | _ -> false));
  check_int "duplicated static method: one edge per input" 2
    (count_edges g (function
      | Elem.Static_call { meth; _ } -> meth.Javamodel.Member.mname = "make"
      | _ -> false));
  check_int "elems_of_decl already deduped" 5
    (List.length (Sig_graph.elems_of_decl (Hierarchy.find h (Qname.of_string "p.A"))));
  check_bool "matches the global-table builder" true (builders_agree h)

(* Mined splicing goes through [add_edge] after a build that never made the
   global table: a signature edge it re-adds must still be dropped. *)
let test_add_edge_after_build () =
  let h = Japi.Loader.load_string dup_model in
  let g = Sig_graph.build h in
  let edges = Graph.edge_count g and gen = Graph.generation g in
  Graph.iter_edges g (fun e -> Graph.add_edge g ~src:e.Graph.src e.Graph.elem ~dst:e.Graph.dst);
  check_int "re-added signature edges dropped" edges (Graph.edge_count g);
  check_int "generation unchanged" gen (Graph.generation g);
  let a = Jtype.ref_ (Qname.of_string "p.A") and i = Jtype.ref_ (Qname.of_string "p.I") in
  let src = Option.get (Graph.find_type_node g i) and dst = Option.get (Graph.find_type_node g a) in
  let cast = Elem.Downcast { from_ = i; to_ = a } in
  Graph.add_edge g ~src cast ~dst;
  Graph.add_edge g ~src cast ~dst;
  check_int "a new edge lands once" (edges + 1) (Graph.edge_count g)

let () =
  Alcotest.run "coldpath"
    [
      ( "front end",
        [
          Alcotest.test_case "seeds agree with the oracle" `Quick test_seeds_agree;
          Alcotest.test_case "lexer error outranks an earlier syntax error" `Quick
            test_lexer_error_wins;
          Alcotest.test_case "end-of-input lookbehind" `Quick test_eof_lookbehind;
        ] );
      ("front end fuzz", List.map QCheck_alcotest.to_alcotest [ prop_mutants_agree ]);
      ( "graph build",
        [
          Alcotest.test_case "bundled model agrees with the oracle" `Quick test_bundled_graph;
          Alcotest.test_case "duplicates yield one edge" `Quick test_duplicates_once;
          Alcotest.test_case "add_edge after a build still dedups" `Quick
            test_add_edge_after_build;
        ] );
      ("graph build oracle", List.map QCheck_alcotest.to_alcotest [ prop_apigen_graphs ]);
    ]
