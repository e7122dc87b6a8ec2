(* The OCaml half of the perfbench harness (run.py is the other half).

   Subcommands, all driven by run.py:

     world --dir W
         Write the fixed 100k-method world into W as .japi files, one per
         package, listed in W/api.list in command-line order.
     gen --workload W --seed N --seconds S --world W --dir D
         Write workload W's inputs into D: the request stream and the
         output oracle (expected replies computed in-process with the
         exhaustive strategy).
     churn-final --seed N --applied K --world W --dir D
         After a churn run: the expected answers of the fixed query pairs
         over a cold Sig_graph.build of the world with the first K edits.
     trace --workload W --seconds S --world W --dir D
         The in-process traced run: replay D's request stream through each
         layer's public entry points, recording one span per call, and
         print the per-layer metrics as one JSON line.
     selftest
         Span self-time arithmetic and stream determinism checks.

   Nothing here changes the program under test; it only calls it. *)

module Query = Prospector.Query
module Graph = Prospector.Graph
module Reach = Prospector.Reach
module Search = Prospector.Search
module Topk = Prospector.Topk
module Rank = Prospector.Rank
module Codegen = Prospector.Codegen
module Jungloid = Prospector.Jungloid
module Delta = Prospector.Delta
module Qcache = Prospector.Qcache
module Shard = Prospector.Shard
module Proto = Prospector_server.Proto
module Service = Prospector_server.Service
module Jtype = Javamodel.Jtype
module Hierarchy = Javamodel.Hierarchy
module Decl = Javamodel.Decl
module Qname = Javamodel.Qname
module Rng = Corpusgen.Rng
module Pool = Prospector_parallel.Pool

let now = Unix.gettimeofday

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let ( // ) = Filename.concat

let json_lines js = String.concat "" (List.map (fun j -> Proto.to_string j ^ "\n") js)

(* ---------- spans ---------- *)

module Span = struct
  type t = {
    name : string;
    start : float;
    mutable stop : float;
    parent : int;  (* index of the enclosing span, -1 for a root *)
    req : int;  (* request id, -1 for set-up work *)
  }

  let on = ref true
  let spans : t option array ref = ref (Array.make 4096 None)
  let count = ref 0
  let open_ = ref (-1)
  let req = ref (-1)

  let reset () =
    spans := Array.make 4096 None;
    count := 0;
    open_ := -1

  let push s =
    if !count = Array.length !spans then begin
      let a = Array.make (2 * !count) None in
      Array.blit !spans 0 a 0 !count;
      spans := a
    end;
    !spans.(!count) <- Some s;
    incr count;
    !count - 1

  (* Record one call; nested [with_] calls become its children. *)
  let with_ name f =
    if not !on then f ()
    else begin
      let parent = !open_ in
      let i = push { name; start = now (); stop = 0.; parent; req = !req } in
      open_ := i;
      Fun.protect
        ~finally:(fun () ->
          (Option.get !spans.(i)).stop <- now ();
          open_ := parent)
        f
    end

  let all () = Array.init !count (fun i -> Option.get !spans.(i))

  (* Self time: the span's duration minus its direct children's. *)
  let self_times (a : t array) =
    let self = Array.map (fun s -> s.stop -. s.start) a in
    Array.iter
      (fun s -> if s.parent >= 0 then
          self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
      a;
    self
end

let span = Span.with_

(* ---------- workloads ---------- *)

type workload = Search_100k | Table1_hot | Churn_100k | Batch_100k

let workload_of_string = function
  | "search-100k" -> Search_100k
  | "table1-hot" -> Table1_hot
  | "churn-100k" -> Churn_100k
  | "batch-100k" -> Batch_100k
  | s -> failwith ("unknown workload " ^ s)

(* Every 100k workload runs on one fixed world — the scale benches' mega
   world at its default seed — so each run starts from the same pristine
   world and image, and --seed draws only the request stream. Across
   worlds, per-query cost is dominated by a few heavy best-first tails
   whose presence depends on the world, which would make the figures
   measure the world instead of the program. *)
let world_methods = 100_000
let world_seed = 42

(* The daemon's per-worker cache capacity (Service.local's default). *)
let worker_cache = 256

(* Stream sizes: the closed loops wrap around a stream when they exhaust
   it, so these only need to exceed what one run consumes for the
   distinct-request workloads. *)
let search_stream seconds = max 4000 (1500 * seconds)
let batch_queries = 1500
let churn_pairs = 64

(* Body-only reloads the batch-100k traced run replays after the batch:
   with search-100k and churn-100k outside BENCHMARK.json, its trace is
   where the Delta and Serialize layers get measured on the 100k world. *)
let batch_reloads = 20
let churn_stream = 50_000
let hot_stream = 60_000
let reload_interval_s = 0.2

(* Replies checked against the exhaustive oracle per 100k run: exhaustive
   enumeration costs ~0.1 s a query at this size. *)
let oracle_sample = 10
let reload_count seconds = int_of_float (float seconds /. reload_interval_s) + 20

(* A loaded world exactly as the CLI builds it: hierarchy from the .japi
   files in their command-line order (or the bundled model), signature
   graph, and — for the bundled model — the mined corpus. *)
type world = {
  hierarchy : Hierarchy.t;
  graph : Graph.t;
  usage : Mining.Usage.t option;
  proto : Analysis.Protocol.model option;
}

let api_paths dir = List.map (fun f -> dir // f) (read_lines (dir // "api.list"))

(* Each set-up stage is a span; outside the traced run nobody reads them. *)
let load_generated dir =
  let files = List.map (fun f -> (f, read_file f)) (api_paths dir) in
  let hierarchy = span "japi.parse" (fun () -> Japi.Loader.load_files files) in
  let graph = span "sig_graph.build" (fun () -> Prospector.Sig_graph.build hierarchy) in
  { hierarchy; graph; usage = None; proto = None }

let load_bundled () =
  let hierarchy = span "japi.parse" Apidata.Api.hierarchy in
  let graph = span "sig_graph.build" (fun () -> Prospector.Sig_graph.build hierarchy) in
  span "mining.enrich" (fun () ->
      let prog = Minijava.Resolve.parse_program ~api:hierarchy Apidata.Api.corpus_sources in
      let usage = ref None in
      ignore
        (Mining.Enrich.enrich
           ~on_examples:(fun exs -> usage := Some (Mining.Usage.of_examples exs))
           graph prog);
      { hierarchy; graph; usage = !usage; proto = Some (Mining.Protomine.mine prog) })

let edge_cost w = Option.map Mining.Usage.edge_cost w.usage
let protocol_check w = Option.map (fun m j -> Analysis.Protolint.violations m j) w.proto

let exhaustive = { Query.default_settings with Query.strategy = Query.Exhaustive }

(* ---------- request encoding ---------- *)

let query_req ~id ?ranking (q : Query.t) =
  Proto.Obj
    ([
       ("op", Proto.Str "query");
       ("id", Proto.Int id);
       ("tin", Proto.Str (Jtype.to_string q.Query.tin));
       ("tout", Proto.Str (Jtype.to_string q.Query.tout));
     ]
    @ match ranking with Some r -> [ ("ranking", Proto.Str r) ] | None -> [])

let assist_req ~id (p : Apidata.Study.t) =
  Proto.Obj
    [
      ("op", Proto.Str "assist");
      ("id", Proto.Int id);
      ("tout", Proto.Str p.Apidata.Study.tout);
      ( "vars",
        Proto.Arr
          (List.map
             (fun (n, t) -> Proto.Obj [ ("name", Proto.Str n); ("type", Proto.Str t) ])
             p.Apidata.Study.vars) );
      ("protocol", Proto.Str "warn");
    ]

(* What the daemon's reply carries per result, in order. *)
let results_expect rs =
  Proto.Arr
    (List.map
       (fun (r : Query.result) ->
         Proto.Arr
           [ Proto.Str (Jungloid.to_string r.Query.jungloid); Proto.Str r.Query.code ])
       rs)

let suggestions_expect ss =
  Proto.Arr
    (List.map
       (fun (s : Prospector.Assist.suggestion) ->
         Proto.Arr
           [
             Proto.Str s.Prospector.Assist.title;
             Proto.Str s.Prospector.Assist.code;
             (match s.Prospector.Assist.uses_var with
             | Some v -> Proto.Str v
             | None -> Proto.Null);
           ])
       ss)

(* `prospector batch` prints one block per query; this renders the block the
   oracle expects, byte for byte. *)
let batch_block (q : Query.t) rs =
  let b = Buffer.create 256 in
  Printf.bprintf b "(%s, %s): %d result(s)\n" (Jtype.to_string q.Query.tin)
    (Jtype.to_string q.Query.tout) (List.length rs);
  List.iteri
    (fun i (r : Query.result) ->
      Printf.bprintf b "#%d  %s\n" (i + 1) (Jungloid.to_string r.Query.jungloid);
      String.split_on_char '\n' (String.trim r.Query.code)
      |> List.iter (fun line -> Printf.bprintf b "      %s\n" line))
    rs;
  Buffer.contents b

(* ---------- sampling ---------- *)

let ref_nodes g =
  Array.of_list
    (List.filter
       (fun (ty, _) -> match ty with Jtype.Ref _ -> true | _ -> false)
       (Graph.real_nodes g))

(* Distinct (tin, tout) pairs, [solvable_share] of them solvable according
   to the reachability index (the rest have no path at all). A tin that is
   already a subtype of tout needs no code — the engine answers nothing —
   so such pairs are not drawn. *)
let sample_pairs rng h g reach ~count ~solvable_share =
  let nodes = ref_nodes g in
  let n = Array.length nodes in
  let seen = Hashtbl.create (2 * count) in
  let draw want_solvable =
    let rec go tries =
      if tries > 5_000_000 then failwith "pair sampling did not converge";
      let ti, si = nodes.(Rng.int rng n) and to_, di = nodes.(Rng.int rng n) in
      if si = di || Hashtbl.mem seen (si, di) || Hierarchy.is_subtype h ti to_ then go (tries + 1)
      else if Reach.mem reach ~src:si ~target:di <> want_solvable then go (tries + 1)
      else begin
        Hashtbl.replace seen (si, di) ();
        ({ Query.tin = ti; tout = to_ }, want_solvable)
      end
    in
    go 0
  in
  List.init count (fun _ -> draw (Rng.bool rng solvable_share))

(* Up to [count] seeded picks among the first [among] indices whose
   exhaustive oracle answer is complete: an exhaustive enumeration that
   stops at [settings.limit] may miss better-ranked solutions (Query.info's
   [truncated]), so it is no oracle for that query. Returns the checked
   (index, answer) pairs and how many picks were passed over. *)
let oracle_sample_of rng ~among ~count answer =
  let rec go acc skipped = function
    | [] -> (List.rev acc, skipped)
    | _ when List.length acc = count -> (List.rev acc, skipped)
    | i :: rest -> (
        match answer i with
        | Some a -> go ((i, a) :: acc) skipped rest
        | None -> go acc (skipped + 1) rest)
  in
  go [] 0 (Rng.shuffle rng (List.init among Fun.id))

(* A body-only edit of class [d]: one extra method returning the class
   itself. It adds only a self-loop edge, which no acyclic jungloid uses,
   so query answers are the same before and after — every reply under
   churn can be checked against one oracle. *)
let edited_decl k (d : Decl.t) =
  let m =
    Javamodel.Member.meth (Printf.sprintf "zzChurn%d" k) ~params:[]
      ~ret:(Jtype.Ref d.Decl.dname)
  in
  { d with Decl.methods = m :: d.Decl.methods }

(* The edit as reloadable .japi text: [print_files] of a one-class
   hierarchy (the closure fillers are synthetic and not printed). *)
let edit_japi d =
  let pkg = String.concat "." (Qname.package d.Decl.dname) in
  match List.assoc_opt pkg (Japi.Printer.print_files (Hierarchy.of_decls [ d ])) with
  | Some src -> src
  | None -> failwith ("no printed package for " ^ Qname.to_string d.Decl.dname)

let editable_classes rng h =
  Hierarchy.decls h
  |> List.filter (fun (d : Decl.t) ->
         (not d.Decl.synthetic) && not (Qname.equal d.Decl.dname Qname.object_qname))
  |> Rng.shuffle rng

let churn_edits ~seed ~count h =
  let rng = Rng.create ~seed:(seed + 7) in
  List.filteri (fun i _ -> i < count) (editable_classes rng h)
  |> List.mapi (fun k d -> edited_decl k d)

(* ---------- gen ---------- *)

let write_reloads dir ~seed ~count h =
  write_file (dir // "reloads.ndjson")
    (json_lines
       (List.mapi
          (fun k d ->
            Proto.Obj
              [ ("op", Proto.Str "reload"); ("id", Proto.Int k); ("japi", Proto.Str (edit_japi d)) ])
          (churn_edits ~seed ~count h)))

let world_stats w =
  let fz = Graph.freeze w.graph in
  [
    ("methods", Proto.Int
       (Hierarchy.fold w.hierarchy ~init:0 ~f:(fun acc (d : Decl.t) ->
            acc + List.length d.Decl.methods)));
    ("classes", Proto.Int (Hierarchy.size w.hierarchy));
    ("nodes", Proto.Int fz.Graph.f_nodes);
    ("edges", Proto.Int fz.Graph.f_edges);
  ]

let write_world dir =
  let h = Corpusgen.Apigen.mega ~seed:world_seed ~methods:world_methods () in
  Unix.mkdir (dir // "api") 0o755;
  let names =
    List.mapi
      (fun i (pkg, src) ->
        let f = Printf.sprintf "api/%04d_%s.japi" i pkg in
        write_file (dir // f) src;
        f)
      (Japi.Printer.print_files h)
  in
  write_file (dir // "api.list") (String.concat "\n" names ^ "\n")

let gen workload ~seed ~seconds ~world dir =
  let rng = Rng.create ~seed in
  let oracle = ref [] and extra = ref [] and skipped = ref 0 in
  let requests, w =
    match workload with
    | Table1_hot ->
        let w = load_bundled () in
        let ec = edge_cost w and pc = protocol_check w in
        let distinct =
          List.concat_map
            (fun ranking ->
              List.map
                (fun (p : Apidata.Problems.t) ->
                  let q = Query.query p.Apidata.Problems.tin p.Apidata.Problems.tout in
                  let settings =
                    { exhaustive with Query.ranking =
                        Result.get_ok (Query.ranking_of_string ranking) }
                  in
                  ( (fun id -> query_req ~id ~ranking q),
                    results_expect
                      (Query.run ~settings ?edge_cost:ec ~graph:w.graph
                         ~hierarchy:w.hierarchy q) ))
                Apidata.Problems.all)
            [ "paper"; "mined" ]
          @ List.map
              (fun (p : Apidata.Study.t) ->
                let ctx =
                  {
                    Prospector.Assist.vars =
                      List.map (fun (n, t) -> (n, Jtype.ref_of_string t)) p.Apidata.Study.vars;
                    expected = Jtype.ref_of_string p.Apidata.Study.tout;
                  }
                in
                ( (fun id -> assist_req ~id p),
                  suggestions_expect
                    (Prospector.Assist.suggest
                       ~settings:{ exhaustive with Query.protocol = Query.Warn }
                       ?edge_cost:ec ?protocol_check:pc ~graph:w.graph
                       ~hierarchy:w.hierarchy ctx) ))
              Apidata.Study.all
        in
        let d = List.length distinct in
        (* Zipf(s = 1) over the distinct requests. Their popularity order
           is fixed (one shuffle at a constant seed) and --seed draws the
           sequence, so every seed serves the same mix in expectation. A
           request's id is its distinct index: repeats are byte-equal. *)
        let order =
          Array.of_list (Rng.shuffle (Rng.create ~seed:world_seed) (List.init d Fun.id))
        in
        let cdf = Array.make d 0. in
        let total = ref 0. in
        for r = 0 to d - 1 do
          total := !total +. (1. /. float (r + 1));
          cdf.(r) <- !total
        done;
        let pick () =
          let u = Rng.float rng !total in
          let r = ref 0 in
          while !r < d - 1 && cdf.(!r) < u do incr r done;
          order.(!r)
        in
        let reqs = Array.of_list (List.mapi (fun id (mk, _) -> mk id) distinct) in
        oracle := List.mapi (fun id (_, e) -> (string_of_int id, e)) distinct;
        (List.init hot_stream (fun _ -> reqs.(pick ())), w)
    | Search_100k | Churn_100k | Batch_100k ->
        let w = load_generated world in
        let reach = Reach.build w.graph in
        let run q =
          match Query.run_info ~settings:exhaustive ~graph:w.graph ~hierarchy:w.hierarchy q with
          | _, { Query.truncated = true; _ } -> None
          | rs, _ -> Some rs
        in
        (match workload with
        | Search_100k ->
            let pairs =
              sample_pairs rng w.hierarchy w.graph reach ~count:(search_stream seconds)
                ~solvable_share:0.8
            in
            let arr = Array.of_list pairs in
            let checked, sk =
              oracle_sample_of rng ~among:300 ~count:oracle_sample (fun i -> run (fst arr.(i)))
            in
            skipped := sk;
            oracle := List.map (fun (i, rs) -> (string_of_int i, results_expect rs)) checked;
            extra :=
              [ ( "unsolvable",
                  Proto.Arr
                    (List.concat
                       (List.mapi (fun i (_, s) -> if s then [] else [ Proto.Int i ]) pairs)) ) ];
            (List.mapi (fun id (q, _) -> query_req ~id q) pairs, w)
        | Churn_100k ->
            (* The pair set is fixed (a constant seed): its miss cost after
               each reload is then the same in every run, and --seed draws
               the query sequence and which classes the edits touch. *)
            let pairs =
              List.map fst
                (sample_pairs (Rng.create ~seed:world_seed) w.hierarchy w.graph reach
                   ~count:churn_pairs ~solvable_share:1.)
            in
            let arr = Array.of_list pairs in
            write_reloads dir ~seed ~count:(reload_count seconds) w.hierarchy;
            write_file (dir // "final.ndjson")
              (json_lines (List.mapi (fun id q -> query_req ~id q) pairs));
            (* ids are pair indices, so repeated queries are byte-equal *)
            ( List.init churn_stream (fun _ ->
                  let i = Rng.int rng churn_pairs in
                  query_req ~id:i arr.(i)),
              w )
        | _ ->
            let pairs =
              sample_pairs rng w.hierarchy w.graph reach ~count:batch_queries ~solvable_share:0.8
            in
            write_file (dir // "batch.txt")
              (String.concat ""
                 (List.map
                    (fun ((q : Query.t), _) ->
                      Printf.sprintf "%s %s\n" (Jtype.to_string q.Query.tin)
                        (Jtype.to_string q.Query.tout))
                    pairs));
            write_file (dir // "empty.txt") "";
            write_reloads dir ~seed ~count:batch_reloads w.hierarchy;
            let arr = Array.of_list pairs in
            let checked, sk =
              oracle_sample_of rng ~among:batch_queries ~count:oracle_sample (fun i ->
                  run (fst arr.(i)))
            in
            skipped := sk;
            let unsolvable =
              List.concat (List.mapi (fun i (_, s) -> if s then [] else [ i ]) pairs)
            in
            extra := [ ("unsolvable", Proto.Arr (List.map (fun i -> Proto.Int i) unsolvable)) ];
            let unsolvable = List.filter (fun i -> not (List.mem_assoc i checked)) unsolvable in
            oracle :=
              List.map
                (fun (i, rs) -> (string_of_int i, Proto.Str (batch_block (fst arr.(i)) rs)))
                (checked @ List.map (fun i -> (i, [])) unsolvable);
            (List.mapi (fun id (q, _) -> query_req ~id q) pairs, w))
  in
  write_file (dir // "requests.ndjson") (json_lines requests);
  write_file (dir // "expect.json")
    (Proto.to_string
       (Proto.Obj
          ([ ("seed", Proto.Int seed);
             ("world", Proto.Obj (("seed", Proto.Int (if workload = Table1_hot then 0 else world_seed)) :: world_stats w));
             ("oracle", Proto.Obj !oracle);
             ("oracle_truncated_skipped", Proto.Int !skipped) ]
          @ !extra)))

(* ---------- churn-final ---------- *)

(* Expected final answers after [applied] edits: a cold signature-graph
   build of the edited hierarchy, queried with the default settings (the
   reload property under test is patched = cold, not best-first =
   exhaustive). *)
let churn_final ~seed ~applied ~world dir =
  let w = load_generated world in
  let h = Hierarchy.copy w.hierarchy in
  List.iteri
    (fun k d -> if k < applied then Hierarchy.replace h d)
    (churn_edits ~seed ~count:applied w.hierarchy);
  let graph = Prospector.Sig_graph.build h in
  let expect =
    List.map
      (fun line ->
        match Proto.request_of_json (Proto.of_string line) with
        | Ok { Proto.id = Proto.Int i; req = Proto.Query { tin; tout; _ } } ->
            ( string_of_int i,
              results_expect
                (Query.run ~graph ~hierarchy:h (Query.query tin tout)) )
        | _ -> failwith "bad final request")
      (read_lines (dir // "final.ndjson"))
  in
  write_file (dir // "final_expect.json") (Proto.to_string (Proto.Obj expect))


(* ---------- layer metrics ---------- *)

(* name -> samples, in insertion order of first use *)
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let recording = ref true

let record name v =
  if !recording then
  match Hashtbl.find_opt samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace samples name (ref [ v ])

let values name = match Hashtbl.find_opt samples name with Some l -> !l | None -> []

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float (List.length l)
let sum l = List.fold_left ( +. ) 0. l

(* ---------- the replica query pipeline ---------- *)

(* Seconds spent inside a request on measurement-only work, deducted from
   the engine time the service's self time is computed against. *)
let untimed = ref 0.

(* Query's cone-pruning crossover (Query.prune_threshold), mirrored here
   because the replica calls Reach.cone itself. *)
let prune_threshold = 0.75

let same_results (a : Query.result list) (b : Query.result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Query.result) (y : Query.result) ->
         Jungloid.equal x.Query.jungloid y.Query.jungloid
         && String.equal x.Query.code y.Query.code
         && Rank.compare_key x.Query.key y.Query.key = 0)
       a b

(* One single-source query, stage by stage through the public entry
   points Query.run_info composes on the best-first path: type lookup,
   reach rejection and cone, backward sweep, Topk expansion, rank key and
   code generation per surviving candidate. Returns the results and the
   truncation flag. *)
let replica_query ~fz ~reach ~hierarchy ~edge_cost ~(settings : Query.settings)
    (q : Query.t) =
  let edge_cost = match settings.Query.ranking with Query.Mined -> edge_cost | Query.Paper -> None in
  let scratch = Search.Scratch.domain () in
  Search.Scratch.with_frame scratch (fun () ->
      let ends =
        span "graph.lookup" (fun () ->
            (Graph.frozen_find_type_node fz q.Query.tin, Graph.frozen_find_type_node fz q.Query.tout))
      in
      match ends with
      | Some src, Some dst ->
          let rejected, cone =
            span "reach.cone" (fun () ->
                if not (Reach.mem reach ~src ~target:dst) then (true, None)
                else
                  match Reach.cone reach ~target:dst with
                  | Some (cn, size) ->
                      let frac = float size /. float (Reach.node_count reach) in
                      record "reach.cone_fraction" frac;
                      (false, if frac <= prune_threshold then Some cn else None)
                  | None -> (false, None))
          in
          if rejected then begin
            record "reach.rejected" 1.;
            ([], false)
          end
          else begin
            record "reach.rejected" 0.;
            let dist_to =
              span "search.sweep" (fun () -> Search.Csr.distances_to ~scratch ?cone fz ~target:dst)
            in
            let dsrc = Search.Dist.get dist_to src in
            if dsrc = max_int then ([], false)
            else begin
              (* an O(nodes) count the pipeline does not do: its time is
                 kept out of the engine's *)
              let t0 = now () in
              let reached = ref 0 in
              for u = 0 to fz.Graph.f_nodes - 1 do
                if Search.Dist.get dist_to u < max_int then incr reached
              done;
              record "search.reached_nodes" (float !reached);
              untimed := !untimed +. (now () -. t0);
              let weighted =
                Option.map
                  (fun _ ->
                    {
                      Topk.wdist_to =
                        span "search.sweep" (fun () ->
                            Search.Csr.weighted_distances_to ~scratch ?cone fz ~target:dst);
                      edge_wcost = (fun ord _ -> fz.Graph.f_fwd_wcost.(ord));
                    })
                  edge_cost
              in
              span "topk" (fun () ->
                  let st =
                    Topk.start ?weighted ~memo:(Topk.Memo.domain ())
                      ~weights:settings.Query.weights ~hierarchy
                      ~node_type:(Graph.frozen_node_type fz)
                      ~iter_succs:(fun u f ->
                        for k = fz.Graph.f_fwd_off.{u} to fz.Graph.f_fwd_end.{u} - 1 do
                          f k fz.Graph.f_fwd_edge.(k)
                        done)
                      ~edge_slots:(Array.length fz.Graph.f_fwd_edge)
                      ~materialize:(Jungloid.of_frozen_path fz) ~dist_to
                      ~sources:[ (src, dsrc + settings.Query.slack) ]
                      ~target:dst ~limit:settings.Query.limit ()
                  in
                  let seen = Hashtbl.create 32 in
                  let rec take acc n =
                    if n = 0 then List.rev acc
                    else
                      match Topk.next st with
                      | None -> List.rev acc
                      | Some c ->
                          let j = c.Topk.cand_jungloid in
                          let expr = Jungloid.to_expression j in
                          if Hashtbl.mem seen expr then take acc n
                          else begin
                            Hashtbl.replace seen expr ();
                            let key =
                              span "rank.key" (fun () ->
                                  Rank.key ~weights:settings.Query.weights ?edge_cost hierarchy j)
                            in
                            let code = span "codegen" (fun () -> Codegen.to_java j) in
                            take ({ Query.jungloid = j; key; code } :: acc) (n - 1)
                          end
                  in
                  let rs = take [] settings.Query.max_results in
                  record "topk.materialized" (float (Topk.materialized st));
                  record "topk.truncated" (if Topk.truncated st then 1. else 0.);
                  (rs, Topk.truncated st))
            end
          end
      | _ -> ([], false))

(* ---------- trace ---------- *)

type live = {
  eng : Query.engine;  (* the replica's engine: snapshot, reach, reloads *)
  service : Service.t;  (* a real service over its own engine, for handle_line *)
  local : Service.local;
  w : world;
}

let fresh_live w ~reach ~frozen =
  let mk () =
    Query.engine_of_frozen ~reach ~frozen ?edge_cost:(edge_cost w)
      ?protocol_check:(protocol_check w) ~hierarchy:w.hierarchy ()
  in
  let service =
    Service.create
      ?vet:(Option.map (fun m j -> Analysis.Protolint.vet m j) w.proto)
      ~engine:(mk ()) ()
  in
  { eng = mk (); service; local = Service.local service; w }

let result_json i (r : Query.result) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("jungloid", Proto.Str (Jungloid.to_string r.Query.jungloid));
      ("code", Proto.Str r.Query.code);
    ]

let settings_of ~ranking =
  let base = Query.default_settings in
  match ranking with
  | None -> base
  | Some r -> { base with Query.ranking = Result.get_ok (Query.ranking_of_string r) }

type failure = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let fail fl msg =
  fl.failed <- fl.failed + 1;
  if List.length fl.notes < 20 then fl.notes <- msg :: fl.notes


(* The replica's stand-in for the daemon's worker cache: same capacity,
   keyed like Service's (request shape, settings, snapshot generation). *)
type cval = Cresults of Query.result list * bool | Csuggest of Prospector.Assist.suggestion list

let query_reply ~id rs truncated =
  Proto.ok_response ~id ~op:"query"
    [
      ("count", Proto.Int (List.length rs));
      ("results", Proto.Arr (List.mapi result_json rs));
      ("truncated", Proto.Bool truncated);
    ]

let suggestion_json i (s : Prospector.Assist.suggestion) =
  Proto.Obj
    [
      ("rank", Proto.Int (i + 1));
      ("title", Proto.Str s.Prospector.Assist.title);
      ("code", Proto.Str s.Prospector.Assist.code);
      ( "uses_var",
        match s.Prospector.Assist.uses_var with Some v -> Proto.Str v | None -> Proto.Null );
    ]

(* One request through the replica, then — when [service] — the same line
   through the real Service.handle_line, whose time minus the replica's
   engine work is the service's own dispatch cost. With [check], every
   computed (not cached) answer is compared with Query.run_info / the
   real reply. *)
let trace_request live cache fl ~check ~service line =
  let fz = Query.engine_frozen live.eng in
  let reach = Option.get (Query.engine_reach live.eng) in
  let hierarchy = Query.engine_hierarchy live.eng in
  let gen = Graph.frozen_generation fz in
  let ec = edge_cost live.w and pc = protocol_check live.w in
  fl.attempted <- fl.attempted + 1;
  let deferred = ref ignore and hit = ref false in
  let words0 = Gc.minor_words () and majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let env = span "proto.decode" (fun () -> Proto.request_of_json (Proto.of_string line)) in
  let engine_s = ref 0. in
  let timed f =
    untimed := 0.;
    let t0 = now () in
    let v = span "engine" f in
    engine_s := now () -. t0 -. !untimed;
    v
  in
  let cached key compute =
    match span "qcache.probe" (fun () -> Qcache.find cache (key, gen)) with
    | Some v -> (v, false)
    | None ->
        let v = timed compute in
        Qcache.add cache (key, gen) v;
        (v, true)
  in
  let reply =
    match env with
    | Error e ->
        fail fl ("undecodable request: " ^ e);
        None
    | Ok { Proto.id; req = Proto.Query { tin; tout; ranking; _ } } -> (
        let settings = settings_of ~ranking in
        let q = Query.query tin tout in
        let key = String.concat "\000" [ "q"; tin; tout; Option.value ranking ~default:"" ] in
        match
          cached key (fun () ->
              let rs, tr = replica_query ~fz ~reach ~hierarchy ~edge_cost:ec ~settings q in
              Cresults (rs, tr))
        with
        | Cresults (rs, truncated), computed ->
            if check && computed then
              deferred :=
                (fun () ->
                  let expect, info =
                    Query.run_info ~settings ~reach ~frozen:fz ?edge_cost:ec ~hierarchy q
                  in
                  if not (same_results rs expect && truncated = info.Query.truncated) then
                    fail fl (Printf.sprintf "replica differs from Query.run on (%s, %s)" tin tout));
            hit := not computed;
            Some (span "proto.encode" (fun () -> Proto.to_string (query_reply ~id rs truncated)))
        | Csuggest _, _ -> assert false)
    | Ok { Proto.id; req = Proto.Assist { tout; vars; protocol; _ } } -> (
        let settings =
          match protocol with
          | Some p ->
              { Query.default_settings with
                Query.protocol = Result.get_ok (Query.protocol_of_string p) }
          | None -> Query.default_settings
        in
        let ctx =
          {
            Prospector.Assist.vars = List.map (fun (n, t) -> (n, Jtype.ref_of_string t)) vars;
            expected = Jtype.ref_of_string tout;
          }
        in
        let key =
          String.concat "\000"
            ("a" :: tout :: Option.value protocol ~default:"" :: List.concat_map (fun (n, t) -> [ n; t ]) vars)
        in
        (* Not replicated stage by stage: the multi-source search runs
           inside Assist.suggest, so its span wraps that public call. *)
        match
          cached key (fun () ->
              Csuggest
                (span "assist" (fun () ->
                     Prospector.Assist.suggest ~settings ~frozen:fz ~reach ?edge_cost:ec
                       ?protocol_check:pc ~hierarchy ctx)))
        with
        | Csuggest ss, computed ->
            hit := not computed;
            (* Warn-mode vetting, re-run on its own so it gets a span of
               its own (inside suggest it is not separable). *)
            (match (pc, computed) with
            | Some pc, true ->
                List.iter
                  (fun (s : Prospector.Assist.suggestion) ->
                    ignore
                      (span "protolint.vet" (fun () -> pc s.Prospector.Assist.result.Query.jungloid)))
                  ss
            | _ -> ());
            Some
              (span "proto.encode" (fun () ->
                   Proto.to_string
                     (Proto.ok_response ~id ~op:"assist"
                        [
                          ("count", Proto.Int (List.length ss));
                          ("suggestions", Proto.Arr (List.mapi suggestion_json ss));
                        ])))
        | Cresults _, _ -> assert false)
    | Ok { Proto.id; req = Proto.Reload { japi = Some src; _ } } ->
        timed (fun () ->
            let h = Query.engine_hierarchy live.eng in
            let dh = span "japi.parse" (fun () -> Japi.Loader.load_string ~file:"<reload>" src) in
            (* the op list Service derives from inline .japi *)
            let ops =
              Hierarchy.fold dh ~init:[] ~f:(fun acc (d : Decl.t) ->
                  if d.Decl.synthetic || Qname.equal d.Decl.dname Qname.object_qname then acc
                  else if Hierarchy.mem h d.Decl.dname then Delta.Replace_class d :: acc
                  else Delta.Add_class d :: acc)
            in
            match span "delta.apply" (fun () -> Delta.apply ~hierarchy:h ~frozen:fz (List.rev ops)) with
            | Error _ ->
                fail fl "delta rejected";
                None
            | Ok p ->
                record "delta.spliced_ratio" (if p.Delta.p_mode = Delta.Spliced then 1. else 0.);
                record "delta.touched_nodes" (float p.Delta.p_touched_count);
                (* timed on its own; engine_reload repeats it internally *)
                ignore
                  (span "reach.patch" (fun () ->
                       Reach.patch ~old:reach ~touched:p.Delta.p_touched p.Delta.p_frozen));
                span "engine.reload" (fun () -> Query.engine_reload live.eng p);
                span "hierarchy.warm" (fun () -> Hierarchy.warm (Query.engine_hierarchy live.eng));
                Some (Proto.to_string (Proto.ok_response ~id ~op:"reload" [])))
    | Ok _ ->
        fail fl "unexpected request kind";
        None
  in
  Option.iter (fun r -> record "proto.reply_bytes" (float (String.length r))) reply;
  (* allocation and major collections of the replica's own work *)
  record "gc.minor_words" (Gc.minor_words () -. words0);
  record "gc.majors" (float ((Gc.quick_stat ()).Gc.major_collections - majors0));
  !deferred ();
  if service then begin
    let t0 = now () in
    let real = Service.handle_line ~local:live.local live.service line in
    let dt = now () -. t0 in
    (match Proto.member "ok" (Proto.of_string real) with
    | Some (Proto.Bool true) -> ()
    | _ -> fail fl ("service error reply: " ^ real));
    match env with
    | Ok { Proto.req = Proto.Query _ | Proto.Assist _; _ } ->
        (* on a cache hit there is no engine work to take out; on a miss
           the engine call is the replica's, so single samples are noisy
           and only their median means anything *)
        record (if !hit then "service.self_hit_us" else "service.self_miss_us")
          (1e6 *. (dt -. !engine_s));
        (* the replica must render exactly the real reply *)
        if check then
          Option.iter
            (fun r -> if not (String.equal r real) then fail fl "replica reply differs from Service")
            reply
    | _ -> ()
  end

(* The per-layer metric names run.py reports, in BENCHMARK.json order,
   with their units. *)
let layer_metrics =
  [
    ("proto.decode_us", "us"); ("proto.encode_us", "us"); ("proto.reply_bytes", "bytes");
    ("service.self_us", "us"); ("qcache.hit_ratio", "ratio"); ("qcache.evictions", "per_1k_req");
    ("graph.lookup_us", "us"); ("reach.cone_us", "us"); ("reach.cone_fraction", "ratio");
    ("reach.rejected", "ratio"); ("search.sweep_ms", "ms"); ("search.reached_nodes", "count");
    ("topk.ms", "ms"); ("topk.materialized", "count"); ("topk.truncated", "ratio");
    ("rank.key_us", "us"); ("codegen.us", "us"); ("assist.ms", "ms"); ("protolint.vet_us", "us");
    ("japi.parse_ms", "ms"); ("japi.reload_parse_ms", "ms"); ("hierarchy.warm_ms", "ms"); ("hierarchy.reload_warm_ms", "ms");
    ("delta.apply_ms", "ms"); ("delta.spliced_ratio", "ratio"); ("delta.touched_nodes", "count");
    ("reach.patch_ms", "ms"); ("engine.reload_ms", "ms"); ("sig_graph.build_ms", "ms");
    ("graph.freeze_ms", "ms"); ("reach.build_ms", "ms"); ("mining.enrich_ms", "ms");
    ("serialize.load_ms", "ms"); ("shard.plan_ms", "ms"); ("shard.routed_ratio", "ratio");
    ("batch.run_ms", "ms"); ("gc.minor_words_per_req", "words"); ("gc.major_per_1k_req", "count");
    ("trace.overhead_ratio", "ratio"); ("trace.requests", "count");
  ]

let max_traced_requests = 20_000

let trace workload ~seconds ~world dir =
  (* ---- set-up, stage by stage, as the daemon (or batch) does it ---- *)
  Span.req := -1;
  let w =
    match workload with
    | Table1_hot -> load_bundled ()
    | Search_100k ->
        (* the warm start parses the .japi but reads the graph from an
           image saved beforehand, off the clock *)
        Span.on := false;
        let w = load_generated world in
        let r = Reach.build w.graph in
        ignore (Graph.void_node w.graph);
        ignore (Prospector.Serialize.save_frozen (Graph.freeze w.graph) (dir // "trace.img"));
        ignore (Prospector.Serialize.save_reach r (dir // "trace.img.reach"));
        Span.on := true;
        let files = List.map (fun f -> (f, read_file f)) (api_paths world) in
        { w with hierarchy = span "japi.parse" (fun () -> Japi.Loader.load_files files) }
    | Churn_100k | Batch_100k -> load_generated world
  in
  let frozen, reach =
    if workload = Search_100k then
      span "serialize.load" (fun () ->
          match
            ( Prospector.Serialize.load_frozen ~mmap:true (dir // "trace.img"),
              Prospector.Serialize.load_reach_result (dir // "trace.img.reach") )
          with
          | Ok fz, Ok r -> (fz, r)
          | _ -> failwith "cannot reload the saved image")
    else begin
      let fz =
        span "graph.freeze" (fun () ->
            ignore (Graph.void_node w.graph);
            Graph.freeze ?wcost:(edge_cost w) w.graph)
      in
      (fz, span "reach.build" (fun () -> Reach.build_frozen fz))
    end
  in
  span "hierarchy.warm" (fun () -> Hierarchy.warm w.hierarchy);
  let lines = Array.of_list (read_lines (dir // "requests.ndjson")) in
  let reloads =
    if workload = Churn_100k then Array.of_list (read_lines (dir // "reloads.ndjson")) else [||]
  in
  (* Churn replays one reload after every [per_reload] queries — the
     query:reload mix is fixed so the replay is deterministic. *)
  let per_reload = 50 in
  let stream i =
    let nl = Array.length lines and nr = Array.length reloads in
    let cycle = per_reload + 1 in
    if nr = 0 then lines.(i mod nl)
    else if i mod cycle = per_reload then reloads.(i / cycle mod nr)
    else lines.((i - (i / cycle)) mod nl)
  in
  let fl = { attempted = 0; failed = 0; notes = [] } in
  let replay ~check ~service ~limit ~deadline =
    let live = fresh_live w ~reach ~frozen in
    let cache = Qcache.create ~capacity:worker_cache () in
    let i = ref 0 in
    while !i < limit && now () < deadline do
      Span.req := !i;
      trace_request live cache fl ~check ~service (stream !i);
      incr i
    done;
    (!i, Qcache.stats cache)
  in
  let t_start = now () in
  let n, cstats =
    replay ~check:true ~service:true ~limit:max_traced_requests
      ~deadline:(t_start +. float seconds)
  in
  let gc_words = values "gc.minor_words" and gc_majors = values "gc.majors" in
  (* ---- batch: the one-shot path, shard plan and pool fan-out ---- *)
  if workload = Batch_100k then begin
    let pool = Pool.create ~jobs:2 in
    let eng = Query.engine_of_frozen ~reach ~frozen ~pool ~hierarchy:w.hierarchy () in
    Span.req := -1;
    let qs =
      Array.to_list lines
      |> List.map (fun l ->
             match Proto.request_of_json (Proto.of_string l) with
             | Ok { Proto.req = Proto.Query { tin; tout; _ }; _ } -> Query.query tin tout
             | _ -> failwith "bad batch request")
    in
    let plan = span "shard.plan" (fun () -> Query.engine_shards eng) in
    let answers = span "batch.run" (fun () -> Query.run_batch eng qs) in
    (match plan with
    | Some p ->
        let routed =
          List.filter
            (fun (q : Query.t) ->
              match Graph.frozen_find_type_node frozen q.Query.tout with
              | Some d -> (
                  match Shard.route p ~target:d with Some s -> Shard.sub p s <> None | None -> false)
              | None -> false)
            qs
        in
        record "shard.routed_ratio" (float (List.length routed) /. float (List.length qs))
    | None -> record "shard.routed_ratio" 0.);
    (* sharded, pooled answers against the whole-snapshot pipeline *)
    List.iter
      (fun ((q : Query.t), rs) ->
        fl.attempted <- fl.attempted + 1;
        let expect = Query.run ~reach ~frozen ~hierarchy:w.hierarchy q in
        if not (same_results rs expect) then
          fail fl
            (Printf.sprintf "run_batch differs on (%s, %s)" (Jtype.to_string q.Query.tin)
               (Jtype.to_string q.Query.tout)))
      answers;
    (* The mmap warm start and a chain of body-only reloads on the same
       world, so Serialize and Delta have a workload in BENCHMARK.json. *)
    Span.on := false;
    ignore (Prospector.Serialize.save_frozen frozen (dir // "trace.img"));
    ignore (Prospector.Serialize.save_reach reach (dir // "trace.img.reach"));
    Span.on := true;
    ignore
      (span "serialize.load" (fun () ->
           ( Prospector.Serialize.load_frozen ~mmap:true (dir // "trace.img"),
             Prospector.Serialize.load_reach_result (dir // "trace.img.reach") )));
    let live = fresh_live w ~reach ~frozen in
    let cache = Qcache.create ~capacity:worker_cache () in
    List.iteri
      (fun k line ->
        Span.req := n + k;
        trace_request live cache fl ~check:false ~service:true line)
      (read_lines (dir // "reloads.ndjson"))
  end;
  let spans = Span.all () in
  let self = Span.self_times spans in
  (* ---- tracing overhead: the same replay prefix, spans off vs on ---- *)
  let k = min n 400 in
  recording := false;
  let timed_replay on =
    Span.reset ();
    Span.on := on;
    let t0 = now () in
    ignore (replay ~check:false ~service:false ~limit:k ~deadline:infinity : int * _);
    now () -. t0
  in
  ignore (timed_replay false);
  let off = median (List.init 3 (fun _ -> timed_replay false)) in
  let on = median (List.init 3 (fun _ -> timed_replay true)) in
  Span.on := true;
  (* ---- spans to disk, then the metrics ---- *)
  let b = Buffer.create (64 * Array.length spans) in
  Buffer.add_string b "name\tstart_s\tend_s\tparent\treq\tself_us\n";
  Array.iteri
    (fun i (s : Span.t) ->
      Printf.bprintf b "%s\t%.6f\t%.6f\t%d\t%d\t%.1f\n" s.Span.name (s.Span.start -. t_start)
        (s.Span.stop -. t_start) s.Span.parent s.Span.req (1e6 *. self.(i)))
    spans;
  write_file (dir // "spans.tsv") (Buffer.contents b);
  let setup name scale =
    sum
      (Array.to_list spans
      |> List.filter_map (fun (s : Span.t) ->
             if s.Span.req < 0 && String.equal s.Span.name name then
               Some ((s.Span.stop -. s.Span.start) *. scale)
             else None))
  in
  let in_req name scale =
    median
      (Array.to_list spans
      |> List.filter_map (fun (s : Span.t) ->
             if s.Span.req >= 0 && String.equal s.Span.name name then
               Some ((s.Span.stop -. s.Span.start) *. scale)
             else None))
  in
  let self_median name scale =
    median
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i (s : Span.t) -> if String.equal s.Span.name name then [ self.(i) *. scale ] else [])
               spans)))
  in
  let nf = float (max 1 n) in
  let lookups = cstats.Qcache.s_hits + cstats.Qcache.s_misses in
  let v =
    [
      ("proto.decode_us", in_req "proto.decode" 1e6);
      ("proto.encode_us", in_req "proto.encode" 1e6);
      ("proto.reply_bytes", mean (values "proto.reply_bytes"));
      ( "service.self_us",
        median
          (match values "service.self_hit_us" with [] -> values "service.self_miss_us" | l -> l) );
      ( "qcache.hit_ratio",
        if lookups = 0 then 0. else float cstats.Qcache.s_hits /. float lookups );
      ("qcache.evictions", 1000. *. float cstats.Qcache.s_evictions /. nf);
      ("graph.lookup_us", in_req "graph.lookup" 1e6);
      ("reach.cone_us", in_req "reach.cone" 1e6);
      ("reach.cone_fraction", mean (values "reach.cone_fraction"));
      ("reach.rejected", mean (values "reach.rejected"));
      ("search.sweep_ms", in_req "search.sweep" 1e3);
      ("search.reached_nodes", mean (values "search.reached_nodes"));
      ("topk.ms", self_median "topk" 1e3);
      ("topk.materialized", mean (values "topk.materialized"));
      ("topk.truncated", mean (values "topk.truncated"));
      ("rank.key_us", in_req "rank.key" 1e6);
      ("codegen.us", in_req "codegen" 1e6);
      ("assist.ms", in_req "assist" 1e3);
      ("protolint.vet_us", in_req "protolint.vet" 1e6);
      ("japi.parse_ms", setup "japi.parse" 1e3);
      ("japi.reload_parse_ms", in_req "japi.parse" 1e3);
      ("hierarchy.warm_ms", setup "hierarchy.warm" 1e3);
      ("hierarchy.reload_warm_ms", in_req "hierarchy.warm" 1e3);
      ("delta.apply_ms", in_req "delta.apply" 1e3);
      ("delta.spliced_ratio", mean (values "delta.spliced_ratio"));
      ("delta.touched_nodes", mean (values "delta.touched_nodes"));
      ("reach.patch_ms", in_req "reach.patch" 1e3);
      ("engine.reload_ms", in_req "engine.reload" 1e3);
      ("sig_graph.build_ms", setup "sig_graph.build" 1e3);
      ("graph.freeze_ms", setup "graph.freeze" 1e3);
      ("reach.build_ms", setup "reach.build" 1e3);
      ("mining.enrich_ms", setup "mining.enrich" 1e3);
      ("serialize.load_ms", setup "serialize.load" 1e3);
      ("shard.plan_ms", setup "shard.plan" 1e3);
      ("shard.routed_ratio", mean (values "shard.routed_ratio"));
      ("batch.run_ms", setup "batch.run" 1e3);
      ("gc.minor_words_per_req", mean gc_words);
      ("gc.major_per_1k_req", 1000. *. sum gc_majors /. nf);
      ("trace.overhead_ratio", if off > 0. then on /. off else 1.);
      ("trace.requests", float n);
    ]
  in
  List.iter (fun n -> prerr_endline ("trace: " ^ n)) (List.rev fl.notes);
  print_endline
    (Proto.to_string
       (Proto.Obj
          [
            ("correct", Proto.Bool (fl.failed = 0));
            ("attempted", Proto.Int fl.attempted);
            ("failed", Proto.Int fl.failed);
            ( "metrics",
              Proto.Obj
                (List.map
                   (fun (name, unit) ->
                     (name, Proto.Obj [ ("value", Proto.Float (List.assoc name v)); ("unit", Proto.Str unit) ]))
                   layer_metrics) );
            ("spans", Proto.Int (Array.length spans));
          ]))

(* ---------- selftest ---------- *)

let selftest () =
  (* Span self time = duration - direct children, on a hand-built tree:
     root [0,10] with children [1,4] and [5,6]; the first has a child
     [2,3]. *)
  let mk name start stop parent = { Span.name; start; stop; parent; req = 0 } in
  let a =
    [| mk "root" 0. 10. (-1); mk "a" 1. 4. 0; mk "b" 5. 6. 0; mk "c" 2. 3. 1 |]
  in
  let self = Span.self_times a in
  let ok = self = [| 6.; 2.; 1.; 1. |] in
  (* and the recorder nests: two children under one parent *)
  Span.reset ();
  Span.on := true;
  span "p" (fun () -> span "x" ignore; span "y" ignore);
  let rec_ = Span.all () in
  let nested =
    Array.length rec_ = 3 && rec_.(1).Span.parent = 0 && rec_.(2).Span.parent = 0
    && rec_.(0).Span.parent = -1
  in
  Printf.printf "span self-time arithmetic: %s\nspan nesting: %s\n"
    (if ok then "ok" else "FAILED") (if nested then "ok" else "FAILED");
  if not (ok && nested) then exit 1

(* ---------- main ---------- *)

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec go = function
      | k :: v :: _ when String.equal k name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let need name = match opt name with Some v -> v | None -> failwith ("missing " ^ name) in
  let int name = int_of_string (need name) in
  match args with
  | _ :: "world" :: _ -> write_world (need "--dir")
  | _ :: "gen" :: _ ->
      gen (workload_of_string (need "--workload")) ~seed:(int "--seed")
        ~seconds:(int "--seconds") ~world:(need "--world") (need "--dir")
  | _ :: "churn-final" :: _ ->
      churn_final ~seed:(int "--seed") ~applied:(int "--applied") ~world:(need "--world")
        (need "--dir")
  | _ :: "trace" :: _ ->
      trace (workload_of_string (need "--workload")) ~seconds:(int "--seconds")
        ~world:(need "--world") (need "--dir")
  | _ :: "selftest" :: _ -> selftest ()
  | _ ->
      prerr_endline "usage: pb (world|gen|churn-final|trace|selftest) ...";
      exit 2
