(* Million-method-scale plumbing, shrunk to test size: the package-cone
   shard router must be invisible in batch answers (qcheck, over locality
   worlds where the planner actually engages), the frozen snapshot must
   round-trip through disk bit for bit with and without mmap and survive a
   re-save while mapped, a damaged cache file must surface as a typed error
   rather than a crash, the CSR search must match the list oracle on a
   bench-sized world, and the mega generator must be a pure function of its
   seed. *)

module Jtype = Javamodel.Jtype
module Graph = Prospector.Graph
module Query = Prospector.Query
module Search = Prospector.Search
module Reach = Prospector.Reach
module Shard = Prospector.Shard
module Serialize = Prospector.Serialize

let check_bool = Alcotest.(check bool)

let mega_world methods =
  let h = Corpusgen.Workload.mega_api ~methods in
  (h, Prospector.Sig_graph.build h)

let results_equal (a : Query.result list) (b : Query.result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Query.result) (y : Query.result) ->
         Prospector.Jungloid.equal x.Query.jungloid y.Query.jungloid
         && Prospector.Rank.compare_key x.Query.key y.Query.key = 0
         && x.Query.code = y.Query.code)
       a b

let with_temp f =
  let path = Filename.temp_file "prospector_test" ".froz" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---------- qcheck: sharded batches and disk round-trips ---------- *)

let world_gen ~locality =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* classes = int_range 60 160 in
    return
      (let params =
         {
           Corpusgen.Apigen.default_params with
           classes;
           packages = 12;
           locality;
           seed;
         }
       in
       let h = Corpusgen.Apigen.generate params in
       (h, Prospector.Sig_graph.build h)))

let prop_sharded_batch_oracle =
  QCheck2.Test.make ~name:"sharded run_batch = sequential whole-graph oracle"
    ~count:15 (world_gen ~locality:0.9) (fun (h, g) ->
      let frozen = Graph.freeze g in
      let qs =
        Corpusgen.Workload.random_queries h g ~count:6 ~seed:5
        @ Corpusgen.Workload.random_misses g ~count:2 ~seed:6
      in
      let engine = Query.engine_of_frozen ~frozen ~hierarchy:h () in
      let batch = Query.run_batch engine qs in
      List.length batch = List.length qs
      && List.for_all2
           (fun (q', rs) q ->
             q' = q && results_equal rs (Query.run ~frozen ~hierarchy:h q))
           batch qs)

let prop_frozen_disk_roundtrip =
  QCheck2.Test.make ~name:"save_frozen/load_frozen = freeze (mmap and read)"
    ~count:20 (world_gen ~locality:0.0) (fun (h, g) ->
      let frozen = Graph.freeze g in
      with_temp (fun path ->
          ignore (Serialize.save_frozen frozen path : int);
          let lanes_equal fz =
            let n = frozen.Graph.f_nodes and m = frozen.Graph.f_edges in
            let ok = ref (fz.Graph.f_nodes = n && fz.Graph.f_edges = m) in
            if !ok then begin
              for i = 0 to n do
                if
                  fz.Graph.f_fwd_off.{i} <> frozen.Graph.f_fwd_off.{i}
                  || fz.Graph.f_bwd_off.{i} <> frozen.Graph.f_bwd_off.{i}
                then ok := false
              done;
              for k = 0 to m - 1 do
                if
                  fz.Graph.f_fwd_dst.{k} <> frozen.Graph.f_fwd_dst.{k}
                  || fz.Graph.f_fwd_cost.{k} <> frozen.Graph.f_fwd_cost.{k}
                  || fz.Graph.f_bwd_src.{k} <> frozen.Graph.f_bwd_src.{k}
                  || fz.Graph.f_bwd_cost.{k} <> frozen.Graph.f_bwd_cost.{k}
                  || fz.Graph.f_bwd_nfree.{k} <> frozen.Graph.f_bwd_nfree.{k}
                then ok := false
              done
            end;
            !ok
          in
          let check fz =
            fz.Graph.f_generation = frozen.Graph.f_generation
            && lanes_equal fz
            && List.for_all
                 (fun q ->
                   results_equal
                     (Query.run ~frozen:fz ~hierarchy:h q)
                     (Query.run ~frozen ~hierarchy:h q))
                 (Corpusgen.Workload.random_queries h g ~count:3 ~seed:9)
          in
          let load mmap =
            match Serialize.load_frozen ~mmap path with
            | Ok fz -> fz
            | Error e ->
                QCheck2.Test.fail_reportf "load_frozen: %s"
                  (Serialize.error_message e)
          in
          check (load true) && check (load false)))

(* ---------- typed errors for damaged cache files ---------- *)

let small_world () =
  let h =
    Corpusgen.Apigen.generate
      { Corpusgen.Apigen.default_params with classes = 60 }
  in
  (h, Prospector.Sig_graph.build h)

let test_damaged_files () =
  let _, g = small_world () in
  let frozen = Graph.freeze g in
  with_temp (fun path ->
      ignore (Serialize.save_frozen frozen path : int);
      let full = In_channel.with_open_bin path In_channel.input_all in
      let rewrite s =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s)
      in
      rewrite (String.sub full 0 (String.length full / 2));
      (match Serialize.load_frozen path with
      | Error (Serialize.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "truncated v2 file loaded"
      | Error e ->
          Alcotest.failf "truncated: expected Corrupt, got %s"
            (Serialize.error_message e));
      rewrite (String.sub full 0 20);
      (match Serialize.load_frozen path with
      | Error (Serialize.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "header-only v2 file loaded"
      | Error e ->
          Alcotest.failf "header-only: expected Corrupt, got %s"
            (Serialize.error_message e));
      rewrite "definitely not a prospector cache file";
      match Serialize.load_frozen path with
      | Error (Serialize.Bad_magic _) -> ()
      | _ -> Alcotest.fail "foreign file was not Bad_magic")

(* A snapshot written before the free-variable lane existed (format
   version 2: six segments) must be refused with [Bad_version] — never
   loaded with a missing lane, which would give wrong priorities — so the
   server takes its "ignoring ... rebuilding" path. The file here is a
   current one with its version field set back to 2: the loader reads the
   version first, before any segment. *)
let test_v2_file_refused () =
  let _, g = small_world () in
  with_temp (fun path ->
      ignore (Serialize.save_frozen (Graph.freeze g) path : int);
      Froz_stamp.set_version path 2;
      List.iter
        (fun mmap ->
          match Serialize.load_frozen ~mmap path with
          | Error (Serialize.Bad_version { found = 2; expected = 3 }) -> ()
          | Ok _ -> Alcotest.fail "a version-2 snapshot loaded"
          | Error e ->
              Alcotest.failf "expected Bad_version 2/3, got %s"
                (Serialize.error_message e))
        [ true; false ])

(* Re-saving over a snapshot that is still mapped must leave the mapped one
   intact: the save replaces the file rather than rewriting it in place
   (which would truncate the mapped pages — a SIGBUS on the next query). *)
let test_resave_while_mapped () =
  let h, g = small_world () in
  let qs = Corpusgen.Workload.random_queries h g ~count:5 ~seed:3 in
  let answers fz =
    List.map
      (fun q ->
        List.map
          (fun (r : Query.result) ->
            (Prospector.Jungloid.to_string r.Query.jungloid, r.Query.code))
          (Query.run ~frozen:fz ~hierarchy:h q))
      qs
  in
  with_temp (fun path ->
      ignore (Serialize.save_frozen (Graph.freeze g) path : int);
      let old =
        match Serialize.load_frozen ~mmap:true path with
        | Ok fz -> fz
        | Error e -> Alcotest.fail (Serialize.error_message e)
      in
      let before = answers old in
      check_bool "the sample has answers" true (List.exists (( <> ) []) before);
      (* a much smaller snapshot, so an in-place rewrite would cut the
         mapping short *)
      let tiny =
        Prospector.Sig_graph.build
          (Corpusgen.Apigen.generate
             { Corpusgen.Apigen.default_params with classes = 5 })
      in
      ignore (Serialize.save_frozen (Graph.freeze tiny) path : int);
      check_bool "mapped snapshot answers unchanged" true (answers old = before))

(* ---------- shard plan invariants ---------- *)

let test_shards_engage () =
  let h, g = mega_world 4000 in
  let frozen = Graph.freeze g in
  let reach = Reach.build_frozen frozen in
  match Shard.plan frozen reach with
  | None -> Alcotest.fail "planner declined a locality mega world"
  | Some sh ->
      check_bool "more than one shard" true (Shard.shard_count sh > 1);
      let n = Graph.frozen_node_count frozen in
      for s = 0 to Shard.shard_count sh - 1 do
        match Shard.sub sh s with
        | None -> ()
        | Some sub ->
            let pmap = Shard.to_parent sh s in
            check_bool "sub node count matches its parent map" true
              (Graph.frozen_node_count sub = Array.length pmap);
            check_bool "sub is a strict subgraph" true
              (Graph.frozen_node_count sub < n);
            check_bool "parent ids are valid and ascending" true
              (Array.for_all (fun u -> u >= 0 && u < n) pmap
              &&
              let asc = ref true in
              for i = 1 to Array.length pmap - 1 do
                if pmap.(i - 1) >= pmap.(i) then asc := false
              done;
              !asc)
      done;
      (* routing: every type node lands either in no shard (miss or hub) or
         in one whose sub-snapshot the engine can substitute *)
      List.iter
        (fun (_, node) ->
          match Shard.route sh ~target:node with
          | None -> ()
          | Some s ->
              check_bool "routed shard exists" true
                (s >= 0 && s < Shard.shard_count sh))
        (Graph.real_nodes g);
      ignore h

(* A query routed to its target's shard answers exactly as the whole
   snapshot does. No query path routes through shards any more, so this
   pins the invariant the benchmark's routed ratio relies on directly. *)
let test_shard_sub_answers () =
  let h, g = mega_world 4000 in
  let frozen = Graph.freeze g in
  let reach = Reach.build_frozen frozen in
  match Shard.plan frozen reach with
  | None -> Alcotest.fail "planner declined a locality mega world"
  | Some sh ->
      let routed = ref 0 in
      List.iter
        (fun (q : Query.t) ->
          match Graph.frozen_find_type_node frozen q.Query.tout with
          | None -> ()
          | Some dst -> (
              match Option.bind (Shard.route sh ~target:dst) (Shard.sub sh) with
              | None -> ()
              | Some sub ->
                  incr routed;
                  check_bool "shard answer = whole-snapshot answer" true
                    (results_equal
                       (Query.run ~frozen:sub ~hierarchy:h q)
                       (Query.run ~reach ~frozen ~hierarchy:h q))))
        (Corpusgen.Workload.random_queries h g ~count:30 ~seed:21);
      check_bool "some queries were routed" true (!routed > 0)

(* ---------- CSR kernels: scratch reuse and cone pruning ---------- *)

let test_kernel_scratch_and_cone () =
  let _, g = mega_world 3000 in
  let frozen = Graph.freeze g in
  let reach = Reach.build_frozen frozen in
  let n = Graph.frozen_node_count frozen in
  let target =
    let rec pick = function
      | [] -> Alcotest.fail "no target with a cone"
      | (_, node) :: rest ->
          if Reach.cone reach ~target:node <> None then node else pick rest
    in
    pick (Graph.real_nodes g)
  in
  let base =
    Search.Dist.snapshot ~n (Search.Csr.distances_to frozen ~target)
  in
  let scratch = Search.Scratch.create () in
  let reused =
    Search.Scratch.with_frame scratch (fun () ->
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~scratch frozen ~target))
  in
  check_bool "pooled scratch = fresh lanes" true (base = reused);
  (* run the frame twice more so epoch stamping actually has stale lanes *)
  let reused2 =
    Search.Scratch.with_frame scratch (fun () ->
        ignore
          (Search.Csr.distances_from ~scratch frozen ~sources:[ target ]
            : Search.Dist.t);
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~scratch frozen ~target))
  in
  check_bool "stale pooled lanes are invisible" true (base = reused2);
  match Reach.cone reach ~target with
  | None -> ()
  | Some (cone, _) ->
      let pruned =
        Search.Dist.snapshot ~n
          (Search.Csr.distances_to ~cone frozen ~target)
      in
      check_bool "cone-pruned distances = unpruned" true (base = pruned)

(* ---------- the CSR search against the list oracle, at bench scale ---------- *)

(* The bench's small world: 20 solvable pairs sampled through the reach
   index, every Search.Csr entry point checked against Search_oracle with
   and without the target's cone, weighted search under a non-uniform cost
   model. *)
let test_csr_matches_oracle () =
  let _, g = mega_world 10_000 in
  let wcost e = 1 + (Hashtbl.hash e mod 17) in
  let frozen = Graph.freeze ~wcost g in
  let reach = Reach.build_frozen frozen in
  let n = Graph.frozen_node_count frozen in
  let void = Graph.void_node g in
  let real =
    Array.of_list
      (List.filter_map
         (fun (ty, node) -> match ty with Jtype.Ref _ -> Some node | _ -> None)
         (Graph.real_nodes g))
  in
  let rng = Corpusgen.Rng.create ~seed:31 in
  let rec sample acc k =
    if k = 0 then acc
    else
      let si = real.(Corpusgen.Rng.int rng (Array.length real)) in
      let di = real.(Corpusgen.Rng.int rng (Array.length real)) in
      if si <> di && Reach.mem reach ~src:si ~target:di then sample ((si, di) :: acc) (k - 1)
      else sample acc k
  in
  let pairs = sample [] 20 in
  List.iter
    (fun (src, dst) ->
      let name what cone =
        Printf.sprintf "%d -> %d %s%s" src dst what
          (if cone = None then "" else " (cone)")
      in
      let cone_of = Option.map fst (Reach.cone reach ~target:dst) in
      let viable = Option.map Reach.cone_viable cone_of in
      List.iter
        (fun cone ->
          let viable = if cone = None then None else viable in
          let dist d = Search.Dist.snapshot ~n d in
          check_bool (name "distances_to" cone) true
            (dist (Search.Csr.distances_to ?cone frozen ~target:dst)
            = Search_oracle.distances_to ?viable g ~target:dst);
          check_bool (name "distances_from" cone) true
            (dist (Search.Csr.distances_from ?cone frozen ~sources:[ src ])
            = Search_oracle.distances_from ?viable g ~sources:[ src ]);
          check_bool (name "weighted_distances_to" cone) true
            (dist (Search.Csr.weighted_distances_to ?cone frozen ~target:dst)
            = Search_oracle.weighted_distances_to ?viable g ~target:dst ~cost:wcost);
          let nfree = Prospector.Elem.ref_free_count in
          check_bool (name "charged_distances_to" cone) true
            (dist (Search.Csr.charged_distances_to ?cone frozen ~unit:2 ~target:dst)
            = Search_oracle.weighted_distances_to ?viable g ~target:dst ~cost:(fun e ->
                  Prospector.Elem.cost e + (2 * nfree e)));
          check_bool (name "weighted_distances_to ~unit" cone) true
            (dist (Search.Csr.weighted_distances_to ?cone ~unit:2 frozen ~target:dst)
            = Search_oracle.weighted_distances_to ?viable g ~target:dst ~cost:(fun e ->
                  wcost e + (Prospector.Elem.cost_scale * 2 * nfree e)));
          check_bool (name "enumerate" cone) true
            (Search.Csr.enumerate ?cone frozen ~sources:[ src ] ~target:dst ()
            = Search_oracle.enumerate g ~sources:[ src ] ~target:dst ());
          check_bool (name "enumerate_per_source" cone) true
            (Search.Csr.enumerate_per_source ?cone frozen ~sources:[ src; void ]
               ~target:dst ()
            = Search_oracle.enumerate_per_source g ~sources:[ src; void ] ~target:dst ()))
        [ None; cone_of ])
    pairs

(* ---------- mega generator determinism ---------- *)

let sorted_decls h = List.sort compare (Javamodel.Hierarchy.decls h)

let test_mega_deterministic () =
  let d1 = sorted_decls (Corpusgen.Apigen.mega ~methods:2_000 ()) in
  let d2 = sorted_decls (Corpusgen.Apigen.mega ~methods:2_000 ()) in
  check_bool "same seed, same world" true
    (List.equal Javamodel.Decl.equal d1 d2);
  let d3 = sorted_decls (Corpusgen.Apigen.mega ~seed:7 ~methods:2_000 ()) in
  check_bool "different seed, different world" true
    (not (List.equal Javamodel.Decl.equal d1 d3));
  let count =
    List.fold_left
      (fun acc (d : Javamodel.Decl.t) -> acc + List.length d.methods)
      0 d1
  in
  check_bool "method budget within 25%" true (abs (count - 2_000) < 500)

let () =
  Alcotest.run "scale"
    [
      ( "identity",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sharded_batch_oracle; prop_frozen_disk_roundtrip ] );
      ( "serialize",
        [
          Alcotest.test_case "damaged files are typed errors" `Quick
            test_damaged_files;
          Alcotest.test_case "re-save while mapped" `Quick test_resave_while_mapped;
          Alcotest.test_case "a version-2 file is Bad_version" `Quick
            test_v2_file_refused;
        ] );
      ( "shard",
        [
          Alcotest.test_case "plan engages and stays consistent" `Quick
            test_shards_engage;
          Alcotest.test_case "Shard.sub answers = whole snapshot" `Quick
            test_shard_sub_answers;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "scratch reuse and cone pruning" `Quick
            test_kernel_scratch_and_cone;
          Alcotest.test_case "csr = list oracle, 10k methods" `Quick
            test_csr_matches_oracle;
        ] );
      ( "mega",
        [ Alcotest.test_case "deterministic in the seed" `Quick
            test_mega_deterministic ] );
    ]
