(** Elementary jungloids (Definition 2 of the paper).

    An elementary jungloid is a typed unary expression [λx.e : tin → tout].
    The six kinds of Section 2.1 are represented here. Values of this type
    label the edges of the signature graph and the jungloid graph; a jungloid
    is a well-typed composition of them.

    Free variables — the parameters of a call {e other than} the one chosen
    as the input — cannot be bound during synthesis; code generation declares
    them for the user to fill in, and ranking charges them an estimated cost
    of two elementary jungloids each. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member

type input_slot =
  | Receiver  (** the receiver of an instance call *)
  | Param of int  (** 0-based index into the parameter list *)
  | No_input  (** zero-input construction: the [void → T] pseudo edge *)

type t =
  | Field_access of { owner : Qname.t; field : Member.field }
      (** [λx. x.f : owner → ftype] for instance fields;
          [λ(). C.f : void → ftype] for static fields *)
  | Static_call of { owner : Qname.t; meth : Member.meth; input : input_slot }
      (** one elementary jungloid per class-typed parameter, or a [void]
          input when there is none ([input = No_input]) *)
  | Ctor_call of { owner : Qname.t; ctor : Member.ctor; input : input_slot }
  | Instance_call of { owner : Qname.t; meth : Member.meth; input : input_slot }
      (** the receiver is treated as just another parameter: [input] may be
          [Receiver] or [Param i] (in which case the receiver becomes a free
          variable) *)
  | Widen of { from_ : Jtype.t; to_ : Jtype.t }
      (** widening reference conversion; no syntax, cost 0 *)
  | Downcast of { from_ : Jtype.t; to_ : Jtype.t }
      (** narrowing reference conversion; never derived from signatures —
          only mined examples introduce downcast edges *)

val input_type : t -> Jtype.t
(** [Void] for zero-input elementary jungloids. *)

val output_type : t -> Jtype.t

val free_vars : t -> (string * Jtype.t) list
(** The unfilled slots of the expression: every parameter other than the
    input, plus the receiver when the input is a parameter of an instance
    call. Names are the declared parameter names (or ["receiver"]). *)

val ref_free_count : t -> int
(** The number of reference-typed entries of {!free_vars} — the free
    variables ranking charges — computed without allocating. *)

val cost : t -> int
(** Ranking cost of the elementary jungloid itself: 0 for {!Widen}, 1
    otherwise (free-variable charges are applied by {!Rank}). *)

val cost_scale : int
(** Fixed-point unit for learned (mined) edge costs: one paper cost unit
    equals [cost_scale] weighted units. Mined −log-frequency costs are
    rounded to this grid so weighted search stays in integer arithmetic
    and is deterministic across platforms. *)

val visibility : t -> Member.visibility option
(** Declared visibility of the member referenced; [None] for conversions.
    Used to keep non-public members out of synthesized code. *)

val is_widen : t -> bool

val is_downcast : t -> bool

val owner_package : t -> string option
(** Dotted package of the API element referenced, used by the ranking
    package-crossing tiebreak; [None] for conversions. *)

val describe : t -> string
(** Short human-readable form, e.g. ["IEditorPart.getEditorInput()"],
    ["(IStructuredSelection) ·"], ["widen IFile -> IResource"]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
