(** A small [Domain]-backed fan-out pool.

    The pool is a policy object, not a set of long-lived worker domains:
    each [parallel_for]/[map_*] call spawns [jobs - 1] domains, the calling
    domain works alongside them, and every domain is joined before the call
    returns. That keeps the lifecycle trivial (no shutdown protocol, no
    idle workers burning a domain slot) at the cost of a spawn and a join
    per fan-out. Measured on a 2-core host, an empty 2-way [parallel_for]
    costs a median 92–101 µs, p90 0.33–3.4 ms and up to 4–11 ms (2,000
    calls, three runs): noise against one multi-second batch or mining
    fan-out, but more than the work of a small loop, so fan out once per
    large job, never once per level of an inner loop.

    Work distribution is {e chunked}: indices [0 .. n-1] are split into
    contiguous chunks of [max 1 (n / (jobs * 4))] indices and domains claim
    chunks from a shared atomic counter. Four chunks per worker balances
    load (a slow chunk strands at most ~1/4 of one worker's share) against
    contention on the counter.

    Determinism: results of [map_array]/[map_list] are written into a
    preallocated array at each element's input index, so the output order is
    the input order regardless of how chunks interleave. Any call with
    [jobs = 1] — and any {e nested} fan-out from inside a worker — runs
    sequentially inline, so a pool never deadlocks on itself and
    [jobs = 1] is exactly the plain sequential loop.

    Exceptions: the first exception captured (in chunk-claim order) is
    re-raised in the caller after all domains have been joined; when several
    chunks raise concurrently it is unspecified which one wins. *)

type t

val create : jobs:int -> t
(** @raise Invalid_argument when [jobs < 1]. *)

val sequential : t
(** A pool with [jobs = 1]: every operation runs inline. *)

val jobs : t -> int

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for p ~n body] runs [body i] once for each [i] in
    [0 .. n - 1], fanned out across [jobs p] domains. The body must only
    write to disjoint, index-addressed state (see {!map_array} for the
    canonical use). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with the elements computed in parallel. Output index
    [i] always holds [f arr.(i)]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with the elements computed in parallel; result order is
    input order. *)
