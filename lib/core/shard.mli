(** Package-cone sharding of a frozen jungloid graph.

    Queries are local: a query for target [t] only ever touches [t]'s
    reachability cone. At 10^5–10^6 methods the full CSR no longer fits in
    cache, but the union of cones rooted in one {e package group} — a
    contiguous chunk of the sorted package list — does. This module
    partitions a snapshot by package group: shard [s] contains every node
    from which some node of group [s] is reachable, computed in one bitmask
    DP over the SCC condensation ([gmask(c) = own groups ∪ successors']).
    By construction the cone of any target in group [s] is a subset of
    shard [s], so routing a query to its target's shard is
    result-preserving ([test_scale.ml] checks shard answers against the
    whole snapshot). No query path routes through shards: at 100k methods,
    searching the whole snapshot inside the target's {!Reach} cone is
    faster than building sub-snapshots. The module is kept for
    the benchmark's [shard.routed_ratio] statistic, which plans and routes
    through it.

    Sub-snapshots keep the parent's node order (ids remapped monotonically)
    and per-row edge order, and their edge records share the parent's
    {!Elem.t}s — a path found in a shard materializes to the same jungloid,
    byte for byte, as the same path found in the whole graph. *)

type t

val plan :
  ?max_shards:int -> ?threshold:float -> Graph.frozen -> Reach.t -> t option
(** Build a shard plan. [max_shards] (default 32, capped at 62 — group
    membership is a bitmask in one native int) bounds the number of package
    groups; [threshold] (default 0.75) is the shard-size fraction of the
    whole graph above which a shard is not worth materializing ({!sub}
    answers [None] and the caller runs on the whole snapshot). Returns
    [None] — sharding disabled — when the reachability index does not match
    the snapshot's generation or fewer than two package groups exist.
    O(nodes + edges); shard contents are built lazily by {!sub}. *)

val shard_count : t -> int

val route : t -> target:Graph.node -> int option
(** The shard owning [target]'s package, [None] for packageless or
    out-of-range targets (caller must use the whole graph). *)

val member_count : t -> int -> int
(** Number of nodes in a shard (O(nodes); for benches and tests). *)

val sub : t -> int -> Graph.frozen option
(** The shard's induced sub-snapshot, built on first use and cached.
    [None] when the shard exceeds [threshold] — the caller should run the
    query on the whole snapshot instead. Not safe to call concurrently:
    force the shards a fan-out needs before it starts. *)

val to_parent : t -> int -> Graph.node array
(** For a built shard, the sub-id -> parent-id map ([[||]] for [Whole] or
    unbuilt shards); tests use it to relate sub results to the parent. *)
