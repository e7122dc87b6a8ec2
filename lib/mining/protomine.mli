(** Protocol miner: reconstructs per-receiver call sequences from the
    corpus and learns the typestate model ([Analysis.Protocol]).

    Reconstruction rides on the same [Analysis.Dataflow] indexes as the jungloid
    slicer — receiver-tracked (one sequence per local/parameter receiver,
    plus anonymous sequences for inline receiver chains like
    [a.b().c()]), interprocedural through corpus calls (a variable passed
    as an argument to a corpus method inherits the calls that method makes
    on the parameter), and widen-transparent (the typed AST already
    resolves every call against the receiver's static type, so implicit
    widening never splits a sequence — same as [Usage]). *)

module Tast = Minijava.Tast
module Protocol = Analysis.Protocol

val sequences : Analysis.Dataflow.t -> Protocol.sequence list
(** Every reconstructed receiver sequence of the corpus behind the index,
    in deterministic (method, evaluation) order. A method parameter that
    has corpus callers yields no standalone sequence — its events are
    spliced into each caller's argument instead, so nothing is counted
    twice. *)

val of_dataflow : ?min_evidence:int -> Analysis.Dataflow.t -> Protocol.model
(** [Protocol.learn] over {!sequences} — for callers that already built the
    index. *)

val mine : ?min_evidence:int -> Tast.program -> Protocol.model
(** Build the index and learn the model in one step. *)
