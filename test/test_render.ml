(* The per-result renderers — Jungloid.to_expression, Jungloid.to_string
   and Codegen.generate, built with Buffer — against their Printf-built
   predecessors kept in test/render_oracle.ml, byte for byte: every result
   of the Table 1 queries under paper and mined ranking, and every result
   of a batch over a 10k-method generated world. Each jungloid is rendered
   with and without a named input and in simple and qualified spelling, so
   fresh-variable numbering and keyword escaping are covered as well. *)

module Query = Prospector.Query
module Jungloid = Prospector.Jungloid
module Codegen = Prospector.Codegen
module Problems = Apidata.Problems

let check_bool = Alcotest.(check bool)

let agree (j : Jungloid.t) =
  String.equal (Jungloid.to_expression j) (Render_oracle.to_expression j)
  && String.equal (Jungloid.to_string j) (Render_oracle.to_string j)
  && List.for_all
       (fun input ->
         List.for_all
           (fun qualified ->
             let g = Codegen.generate ?input ~qualified j in
             (g.Codegen.code, g.Codegen.result_var, g.Codegen.free_var_names)
             = Render_oracle.generate ?input ~qualified j)
           [ false; true ])
       [ None; Some ("src", Jungloid.input_type j) ]

(* Every result renders as the oracle does, and its [code] is the oracle's
   rendering of its jungloid. Returns how many results were checked. *)
let check_results what (rs : Query.result list) =
  List.iter
    (fun (r : Query.result) ->
      let j = r.Query.jungloid in
      let code, _, _ = Render_oracle.generate j in
      if not (agree j && String.equal r.Query.code code) then
        Alcotest.failf "%s: %s renders differently from the oracle" what
          (Render_oracle.to_string j))
    rs;
  List.length rs

let table1 ?edge_cost ranking () =
  let graph = Apidata.Api.default_graph () in
  let hierarchy = Apidata.Api.hierarchy () in
  let settings = { Query.default_settings with Query.ranking } in
  let n =
    List.fold_left
      (fun n (p : Problems.t) ->
        let q = Query.query p.Problems.tin p.Problems.tout in
        n
        + check_results
            (Printf.sprintf "problem %d" p.Problems.id)
            (Query.run ~settings ?edge_cost ~graph ~hierarchy q))
      0 Problems.all
  in
  check_bool "Table 1 yields results to compare" true (n > 100)

let test_table1_paper () = table1 Query.Paper ()

let test_table1_mined () =
  table1 ~edge_cost:(Mining.Usage.edge_cost (Apidata.Api.usage ())) Query.Mined ()

let test_generated_batch () =
  let hierarchy = Corpusgen.Workload.mega_api ~methods:10_000 in
  let graph = Prospector.Sig_graph.build hierarchy in
  let qs = Corpusgen.Workload.random_queries hierarchy graph ~count:200 ~seed:23 in
  let engine = Query.engine ~graph ~hierarchy () in
  let n =
    List.fold_left
      (fun n (_, rs) -> n + check_results "10k batch" rs)
      0 (Query.run_batch engine qs)
  in
  check_bool "the batch yields results to compare" true (n > 1000)

let () =
  Alcotest.run "render"
    [
      ( "oracle",
        [
          Alcotest.test_case "Table 1, paper ranking" `Quick test_table1_paper;
          Alcotest.test_case "Table 1, mined ranking" `Quick test_table1_mined;
          Alcotest.test_case "10k-method world, batch results" `Quick
            test_generated_batch;
        ] );
    ]
