(** Example-jungloid extraction (Section 4.2).

    For every cast in the corpus, the extractor walks {e backward} along
    flow-insensitive data-flow paths from the cast's operand, collecting
    elementary jungloids, until it reaches a zero-argument expression (a
    constructor or static call with no reference arguments, a static field)
    or a variable with no producers (e.g. an uncalled method's parameter —
    the example then starts at that variable's type, like Figure 5's
    [IDebugView] input). API calls become elementary jungloids; corpus
    (client) methods are never elementary — they are inlined through their
    return expressions, with parameters wired context-insensitively to every
    call site. The walk branches at calls (receiver or any reference
    argument may be the data-flow input), so the number of examples per cast
    is capped ([max_per_cast]) exactly as the paper caps its
    gigabytes-of-examples blowup.

    Extracted sequences are normalized: widening conversions are inserted
    wherever a value of a subtype flows into a supertype position, so every
    example is a well-typed jungloid ending in its downcast. *)

module Jtype = Javamodel.Jtype
module Elem = Prospector.Elem

type example = {
  input : Jtype.t;  (** [Void] or the type of the terminal variable *)
  elems : Elem.t list;  (** non-empty; the last elem is the downcast *)
  origin : string;  (** "method-key:cast-N", for typestate provenance *)
}

val example_well_typed : Javamodel.Hierarchy.t -> example -> bool
(** Sanity predicate used by tests and the property suite. A thin wrapper
    over [Analysis.Verify.sound]: the example (as a jungloid) must pass the
    analyzer's full re-typecheck, not just compose. *)

val extract :
  ?max_per_cast:int ->
  ?max_len:int ->
  ?lint_gate:bool ->
  ?pool:Prospector_parallel.Pool.t ->
  Analysis.Dataflow.t ->
  example list
(** All example jungloids ending in casts, at most [max_per_cast] (default
    64) per cast expression and at most [max_len] (default 12) non-widening
    elementary jungloids long. With [lint_gate] (default [true]) cast sites
    inside methods carrying error-severity corpus lint are skipped — broken
    client code is not evidence of a working conversion.

    [?pool] fans the per-site backward walks out across domains: sites are
    independent (each owns its extraction budget; the data-flow indexes are
    read-only after construction) and results keep site order, so the
    example list — and the graph mined from it — is identical at any job
    count. *)

val extract_for_arg :
  ?max_per_cast:int ->
  ?max_len:int ->
  ?lint_gate:bool ->
  ?pool:Prospector_parallel.Pool.t ->
  Analysis.Dataflow.t ->
  is_target:(Javamodel.Jtype.t -> bool) ->
  example list
(** The Section 4.3 generalization of the machinery: extract examples ending
    in a call whose {e input parameter} type satisfies [is_target]
    (e.g. equals [Object] or [String]) — those parameter positions play the
    role of downcasts. The final elem of each example is the call with
    [input = Param i]. *)
