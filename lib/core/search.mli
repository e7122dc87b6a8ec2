(** Path search over the jungloid graph (Section 3.1, Section 5).

    Edge costs follow the ranking length: widening edges cost 0 (they have
    no syntax), every other elementary jungloid costs 1. The engine first
    computes the shortest cost [m] with a 0-1 BFS, then enumerates {e all}
    acyclic paths of cost at most [m + slack] ([slack = 1] reproduces the
    paper's configuration) with an admissible prune on the remaining
    distance to the target. A multi-source search — the content-assist mode
    that runs one query per visible variable "all at once" — costs about the
    same as a single query.

    Every search runs over a {!Graph.frozen} snapshot ({!Csr}); a mutable
    {!Graph.t} is frozen once by its caller. *)

type path = {
  source : Graph.node;
  edges : Graph.edge list;  (** in order from source to target *)
}

(** {2 Epoch-stamped distances and per-domain scratch}

    At 10^5–10^6 nodes, a per-query [Array.make n max_int] dominates the
    cheap queries. The search therefore writes distances into recycled
    per-domain lanes, invalidated wholesale by bumping an epoch — no O(n)
    allocation or clearing between queries. {!Dist.t} is the read side:
    entries whose stamp doesn't match the epoch read as [max_int]. *)

module Dist : sig
  type t = {
    d : int array;  (** capacity may exceed the graph's node count *)
    stamp : int array;  (** entry [u] is live iff [stamp.(u) = epoch] *)
    epoch : int;  (** always [>= 1] *)
  }

  val get : t -> int -> int
  (** Distance of a node; [max_int] when unreached, stale, or out of
      range. *)

  val snapshot : n:int -> t -> int array
  (** Materialize entries [0..n-1] as a plain array ([max_int] for
      unreached) — for tests and callers that outlive the scratch frame. *)
end

module Scratch : sig
  type t

  val create : unit -> t

  val domain : unit -> t
  (** This domain's scratch (domain-local storage). Lanes are recycled per
      domain, so a {!Dist.t} produced under scratch must not be read from
      another domain or after the frame ends. *)

  val with_frame : t -> (unit -> 'a) -> 'a
  (** Run a query body; lanes taken inside return to the pool when the
      {e outermost} frame ends (frames nest safely — an inner query cannot
      recycle its caller's live lanes). Outside any frame a search takes
      fresh one-shot lanes, which are safe to let escape. *)
end

val path_cost : path -> int
(** Sum of the edge costs (widening free). *)

(** {2 The search}

    Built for scale: the 0-1 BFS runs over the snapshot's out-of-heap
    offset/cost lanes with an int-packed circular deque, distances land in
    epoch-stamped scratch (pass [?scratch] — usually {!Scratch.domain} —
    inside a {!Scratch.with_frame} to make the steady state
    allocation-free), and the path DFS tracks cold edge-table {e indices},
    resolving boxed {!Graph.edge}s only when a complete path is
    materialized. A test-side reference implementation over the adjacency
    lists ([test/search_oracle.ml]) pins every function here.

    The [?cone] argument of every function is a pruning oracle, normally
    {!Reach.cone} for the query's target: nodes outside it are never
    entered, shrinking the BFS frontier to the target's reachability cone.
    It is the cone's bitset probed inline, not a closure call per relaxed
    edge. With the exact cone the prune is result-preserving — every path
    that reaches the target lies inside the cone — so all distances and
    enumerations relevant to the target are unchanged.

    These functions never touch the originating mutable graph, so they are
    safe to call from many domains sharing one snapshot (each domain using
    its own scratch). *)

module Csr : sig
  val distances_to :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    target:Graph.node ->
    Dist.t
  (** Cost of the cheapest path from each node to [target]; [max_int] when
      unreachable. *)

  val distances_from :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    sources:Graph.node list ->
    Dist.t
  (** Cost of the cheapest path from the nearest source to each node. *)

  val charged_distances_to :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    unit:int ->
    target:Graph.node ->
    Dist.t
  (** [h(v)]: the cheapest [cost + unit * nfree] over paths from each node
      to [target], [nfree] being the snapshot's [f_bwd_nfree] lane — the
      paper length with every reference-typed free variable charged at
      least [unit]. [max_int] when unreachable; reachability is exactly
      {!distances_to}'s. Exact (Dijkstra), so consistent
      ([h(u) <= cost(e) + unit * nfree(e) + h(v)] on every edge) and never
      below {!distances_to} — the priority {!Topk.start}'s [?h] wants. *)

  val weighted_distances_to :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    ?unit:int ->
    Graph.frozen ->
    target:Graph.node ->
    Dist.t
  (** Exact cheapest weighted cost from each node to [target] (Dijkstra)
      under the non-negative cost model baked into the snapshot's
      [f_bwd_wcost] at freeze time ({!Graph.freeze}'s [?wcost]), each edge
      charged [Elem.cost_scale * unit] more per reference-typed free
      variable ([unit] default 0); [max_int] when unreachable. Used as the
      admissible heuristic of weighted best-first search: exact distances
      satisfy the triangle inequality, so the resulting priority is
      consistent as long as [unit] does not exceed the per-variable
      charge. *)

  val shortest_cost :
    ?scratch:Scratch.t ->
    ?cone:Reach.cone ->
    Graph.frozen ->
    sources:Graph.node list ->
    target:Graph.node ->
    int option
  (** [None] when the target is unreachable from every source. *)

  val enumerate :
    ?scratch:Scratch.t ->
    Graph.frozen ->
    sources:Graph.node list ->
    target:Graph.node ->
    ?slack:int ->
    ?limit:int ->
    ?cone:Reach.cone ->
    ?truncated:bool ref ->
    unit ->
    path list
  (** All acyclic paths from any source to [target] of cost at most
      [shortest + slack] (default [slack = 1]), up to [limit] paths (default
      4096), in a DFS order that follows {!Graph.succs}. Returns [[]] when
      unreachable. Paths of cost 0 (pure widening, or an empty path when a
      source equals the target) are excluded: they contain no code.

      [?truncated] is set to [true] (never cleared — callers may share one
      flag across searches) when the enumeration stopped at [limit], i.e.
      the returned list may be missing paths. The check is conservative:
      exactly [limit] paths also raises the flag. *)

  val enumerate_per_source :
    ?scratch:Scratch.t ->
    Graph.frozen ->
    sources:Graph.node list ->
    target:Graph.node ->
    ?slack:int ->
    ?limit:int ->
    ?cone:Reach.cone ->
    ?truncated:bool ref ->
    unit ->
    path list
  (** Content-assist semantics: conceptually one query {e per} source, so
      each source's paths are bounded by that source's own shortest cost
      plus [slack] (a cheap [void] construction must not suppress a longer
      solution from a visible variable). The backward BFS is shared,
      keeping the cost close to a single query — the paper's "multiple
      starting points" implementation note. *)
end
