(* Package-cone sharding: partition a frozen snapshot so each query's
   reachability cone lives inside one cache-friendly sub-snapshot. *)

module Jtype = Javamodel.Jtype
module Qname = Javamodel.Qname

type entry =
  | Unbuilt
  | Built of Graph.frozen * Graph.node array  (* sub snapshot, sub -> parent *)
  | Whole  (* shard covers most of the graph; not worth materializing *)

type t = {
  p_frozen : Graph.frozen;
  p_comp : int array;  (* node -> SCC id, shared with the Reach index *)
  p_gmask : int array;  (* SCC id -> bitmask of groups reachable from it *)
  p_group_of_node : int array;  (* node -> its package group, -1 if none *)
  p_nshards : int;
  p_threshold : float;
  p_subs : entry array;
}

(* Group membership is one bit per group in a native int; keep headroom
   below Sys.int_size. *)
let max_groups = 62

let rec package_of (ty : Jtype.t) =
  match ty with
  | Jtype.Ref q -> Some (Qname.package_string q)
  | Jtype.Array elt -> package_of elt
  | Jtype.Prim _ | Jtype.Void -> None

let plan ?(max_shards = 32) ?(threshold = 0.75) (fz : Graph.frozen) reach =
  let n = fz.Graph.f_nodes in
  let comp = Reach.components reach in
  if
    Reach.generation reach <> fz.Graph.f_generation
    || Array.length comp <> n
    || n = 0
  then None
  else begin
    (* Distinct packages, sorted, chunked into contiguous groups: sorting
       keeps sibling packages (common prefixes) in the same group, which is
       where cross-package edges concentrate. *)
    let pkgs = Hashtbl.create 64 in
    Array.iter
      (fun ty ->
        match package_of ty with
        | Some p -> Hashtbl.replace pkgs p ()
        | None -> ())
      fz.Graph.f_types;
    let np = Hashtbl.length pkgs in
    let nshards = min (min max_shards max_groups) np in
    if nshards < 2 then None
    else begin
      let sorted =
        List.sort String.compare (Hashtbl.fold (fun p () acc -> p :: acc) pkgs [])
      in
      let group_of_pkg = Hashtbl.create 64 in
      List.iteri (fun i p -> Hashtbl.replace group_of_pkg p (i * nshards / np)) sorted;
      let group_of_node = Array.make n (-1) in
      for u = 0 to n - 1 do
        match package_of fz.Graph.f_types.(u) with
        | Some p -> group_of_node.(u) <- Hashtbl.find group_of_pkg p
        | None -> ()
      done;
      let ncomp = Reach.scc_count reach in
      let gmask = Array.make ncomp 0 in
      for u = 0 to n - 1 do
        let g = group_of_node.(u) in
        if g >= 0 then gmask.(comp.(u)) <- gmask.(comp.(u)) lor (1 lsl g)
      done;
      (* Condensation DP. SCC ids are in reverse topological order (every
         successor of c has an id < c), so one ascending sweep sees each
         successor's final mask. *)
      let members = Array.make ncomp [] in
      for u = n - 1 downto 0 do
        members.(comp.(u)) <- u :: members.(comp.(u))
      done;
      let off = fz.Graph.f_fwd_off
      and fin = fz.Graph.f_fwd_end
      and adj = fz.Graph.f_fwd_dst in
      for c = 0 to ncomp - 1 do
        List.iter
          (fun u ->
            for k = off.{u} to fin.{u} - 1 do
              let cv = comp.(adj.{k}) in
              if cv <> c then gmask.(c) <- gmask.(c) lor gmask.(cv)
            done)
          members.(c)
      done;
      Some
        {
          p_frozen = fz;
          p_comp = comp;
          p_gmask = gmask;
          p_group_of_node = group_of_node;
          p_nshards = nshards;
          p_threshold = threshold;
          p_subs = Array.make nshards Unbuilt;
        }
    end
  end

let shard_count t = t.p_nshards

let route t ~target =
  if target < 0 || target >= Array.length t.p_group_of_node then None
  else
    match t.p_group_of_node.(target) with -1 -> None | g -> Some g

let member_count t s =
  let bit = 1 lsl s in
  let count = ref 0 in
  for u = 0 to Array.length t.p_group_of_node - 1 do
    if t.p_gmask.(t.p_comp.(u)) land bit <> 0 then incr count
  done;
  !count

(* The induced sub-snapshot of shard [s]: nodes in ascending parent order
   (so the parent -> sub map is monotone and every id comparison the search
   makes — tiebreaks on source node, lexicographic edge indices — orders
   identically) and per-row edge order preserved. Edge records are rebuilt
   with remapped endpoints — Topk reads [e.dst] as the head node id — but
   share the parent's elems, so a materialized jungloid is byte-identical
   to the whole-graph one. *)
let build t s =
  let fz = t.p_frozen in
  let n = fz.Graph.f_nodes in
  let bit = 1 lsl s in
  let comp = t.p_comp and gmask = t.p_gmask in
  let n' = member_count t s in
  if float_of_int n' > t.p_threshold *. float_of_int n then Whole
  else begin
    let map = Array.make n (-1) in
    let glob = Array.make n' 0 in
    let i = ref 0 in
    for u = 0 to n - 1 do
      if gmask.(comp.(u)) land bit <> 0 then begin
        map.(u) <- !i;
        glob.(!i) <- u;
        incr i
      end
    done;
    let off = fz.Graph.f_fwd_off
    and fin = fz.Graph.f_fwd_end
    and dst = fz.Graph.f_fwd_dst
    and cost = fz.Graph.f_fwd_cost in
    let fwd_off' = Graph.ba_int (n' + 1) in
    fwd_off'.{0} <- 0;
    let m' = ref 0 in
    for i = 0 to n' - 1 do
      let u = glob.(i) in
      for k = off.{u} to fin.{u} - 1 do
        if map.(dst.{k}) >= 0 then incr m'
      done;
      fwd_off'.{i + 1} <- !m'
    done;
    let m' = !m' in
    let fwd_dst' = Graph.ba_int m' and fwd_cost' = Graph.ba_cost m' in
    let fwd_wcost' = Array.make m' 0 in
    let fwd_edge' =
      if m' = 0 then [||] else Array.make m' fz.Graph.f_fwd_edge.(0)
    in
    let k' = ref 0 in
    for i = 0 to n' - 1 do
      let u = glob.(i) in
      for k = off.{u} to fin.{u} - 1 do
        let j = map.(dst.{k}) in
        if j >= 0 then begin
          fwd_dst'.{!k'} <- j;
          fwd_cost'.{!k'} <- cost.{k};
          fwd_wcost'.(!k') <- fz.Graph.f_fwd_wcost.(k);
          let e = fz.Graph.f_fwd_edge.(k) in
          fwd_edge'.(!k') <- { e with Graph.src = i; dst = j };
          incr k'
        end
      done
    done;
    let bwd_off', bwd_src', bwd_cost', bwd_wcost', bwd_nfree' =
      Graph.derive_bwd ~n:n' ~m:m' ~fwd_off:fwd_off' ~fwd_end:(Bigarray.Array1.sub fwd_off' 1 n')
        ~fwd_dst:fwd_dst' ~fwd_cost:fwd_cost' ~fwd_wcost:fwd_wcost'
        ~fwd_edge:fwd_edge' ()
    in
    let types' = Array.map (fun u -> fz.Graph.f_types.(u)) glob in
    let origins' = Array.map (fun u -> fz.Graph.f_origins.(u)) glob in
    let ids' = Hashtbl.create (max 16 n') in
    Hashtbl.iter
      (fun key id ->
        if id >= 0 && id < n then begin
          let j = map.(id) in
          if j >= 0 then Hashtbl.replace ids' key j
        end)
      fz.Graph.f_ids;
    let void' =
      match fz.Graph.f_void with
      | Some v when v >= 0 && v < n && map.(v) >= 0 -> Some map.(v)
      | _ -> None
    in
    let sub : Graph.frozen =
      {
        Graph.f_generation = fz.Graph.f_generation;
        f_nodes = n';
        f_edges = m';
        f_fwd_off = fwd_off';
        f_fwd_end = Bigarray.Array1.sub fwd_off' 1 n';
        f_fwd_dst = fwd_dst';
        f_fwd_cost = fwd_cost';
        f_fwd_wcost = fwd_wcost';
        f_fwd_edge = fwd_edge';
        f_bwd_off = bwd_off';
        f_bwd_end = Bigarray.Array1.sub bwd_off' 1 n';
        f_bwd_src = bwd_src';
        f_bwd_cost = bwd_cost';
        f_bwd_wcost = bwd_wcost';
        f_bwd_nfree = bwd_nfree';
        f_fwd_used = m';
        f_bwd_used = m';
        f_plain = fz.Graph.f_plain;
        f_tail = Atomic.make false;
        f_types = types';
        f_origins = origins';
        f_ids = ids';
        f_void = void';
      }
    in
    Built (sub, glob)
  end

let sub t s =
  if s < 0 || s >= t.p_nshards then None
  else
    match t.p_subs.(s) with
    | Built (fz, _) -> Some fz
    | Whole -> None
    | Unbuilt -> (
        let e = build t s in
        t.p_subs.(s) <- e;
        match e with Built (fz, _) -> Some fz | _ -> None)

let to_parent t s =
  if s < 0 || s >= t.p_nshards then [||]
  else match t.p_subs.(s) with Built (_, glob) -> glob | _ -> [||]
