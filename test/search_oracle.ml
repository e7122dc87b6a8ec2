(* Reference search over the mutable graph's adjacency lists: the
   list-based engine that Search.Csr replaced, kept as the oracle the
   suites compare the CSR search against. Deliberately plain — one
   Dijkstra over a Set-backed queue serves the 0-1 and the weighted cost
   models, and the path DFS walks Graph.succs with a bool array for the
   on-path marks. [?viable] is the pruning oracle (nodes it rejects are
   never entered), normally Reach.cone_viable of the target's cone. *)

module Graph = Prospector.Graph
module Elem = Prospector.Elem
module Search = Prospector.Search

let ok = function None -> fun _ -> true | Some f -> f

module Q = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let dijkstra n ~starts ~next =
  let dist = Array.make n max_int in
  let q = ref Q.empty in
  List.iter
    (fun s ->
      if s >= 0 && s < n then begin
        dist.(s) <- 0;
        q := Q.add (0, s) !q
      end)
    starts;
  while not (Q.is_empty !q) do
    let ((d, u) as top) = Q.min_elt !q in
    q := Q.remove top !q;
    if d = dist.(u) then
      next u (fun c v ->
          if d + c < dist.(v) then begin
            dist.(v) <- d + c;
            q := Q.add (d + c, v) !q
          end)
  done;
  dist

let weighted_distances_to ?viable g ~target ~cost =
  dijkstra (Graph.node_count g) ~starts:[ target ] ~next:(fun u f ->
      List.iter
        (fun (e : Graph.edge) -> if ok viable e.src then f (cost e.elem) e.src)
        (Graph.preds g u))

let distances_to ?viable g ~target =
  weighted_distances_to ?viable g ~target ~cost:Elem.cost

let distances_from ?viable g ~sources =
  dijkstra (Graph.node_count g) ~starts:sources ~next:(fun u f ->
      List.iter
        (fun (e : Graph.edge) -> if ok viable e.dst then f (Elem.cost e.elem) e.dst)
        (Graph.succs g u))

let shortest_cost ?viable g ~sources ~target =
  match List.filter (ok viable) sources with
  | [] -> None
  | sources ->
      let d = distances_from ?viable g ~sources in
      if target < Array.length d && d.(target) < max_int then Some d.(target) else None

(* Acyclic paths from [source] to [target] of cost at most [budget],
   pruned by the backward distances; nothing extends a path already at
   the target. *)
let dfs_from g ~target ~dist_to ~on_path ~budget ~limit ~count ~results source =
  let rec dfs u cost rev_edges =
    if !count < limit then begin
      if u = target && rev_edges <> [] && cost > 0 then begin
        incr count;
        results := { Search.source; edges = List.rev rev_edges } :: !results
      end;
      if u <> target || rev_edges = [] then
        List.iter
          (fun (e : Graph.edge) ->
            let v = e.dst in
            let c' = cost + Elem.cost e.elem in
            if (not on_path.(v)) && dist_to.(v) < max_int && c' + dist_to.(v) <= budget
            then begin
              on_path.(v) <- true;
              dfs v c' (e :: rev_edges);
              on_path.(v) <- false
            end)
          (Graph.succs g u)
    end
  in
  if dist_to.(source) < max_int then begin
    on_path.(source) <- true;
    dfs source 0 [];
    on_path.(source) <- false
  end

(* [budget_of s] is [None] to skip source [s]. *)
let collect ?viable g ~sources ~target ~limit ~truncated ~budget_of =
  let dist_to = distances_to ?viable g ~target in
  let on_path = Array.make (Graph.node_count g) false in
  let results = ref [] and count = ref 0 in
  List.iter
    (fun s ->
      match budget_of dist_to s with
      | Some budget ->
          dfs_from g ~target ~dist_to ~on_path ~budget ~limit ~count ~results s
      | None -> ())
    (List.sort_uniq compare sources);
  (match truncated with Some r -> if !count >= limit then r := true | None -> ());
  List.rev !results

let enumerate g ~sources ~target ?(slack = 1) ?(limit = 4096) ?viable ?truncated () =
  match shortest_cost ?viable g ~sources ~target with
  | None -> []
  | Some m ->
      collect ?viable g ~sources ~target ~limit ~truncated ~budget_of:(fun _ _ ->
          Some (m + slack))

let enumerate_per_source g ~sources ~target ?(slack = 1) ?(limit = 4096) ?viable
    ?truncated () =
  if target >= Graph.node_count g then []
  else
    collect ?viable g ~sources ~target ~limit ~truncated ~budget_of:(fun d s ->
        if s < Array.length d && d.(s) < max_int then Some (d.(s) + slack) else None)
