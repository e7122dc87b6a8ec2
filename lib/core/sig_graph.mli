(** Construction of the signature graph (Section 3.1).

    Every class declaration contributes its elementary jungloids as edges;
    widening conversions connect each type to its direct supertypes (and
    array types covariantly). Downcast edges are {e not} added — the paper
    shows (Figure 3) that doing so floods the graph with inviable jungloids;
    they arrive only via mined examples ({!Mining.Enrich}) — except in the
    explicit {!add_all_downcasts} mode used to reproduce Figure 3. *)

module Hierarchy = Javamodel.Hierarchy
module Decl = Javamodel.Decl

type config = {
  include_protected : bool;
      (** the paper's implementation "supports only public methods"; enabling
          this implements the extension discussed for the
          [(AbstractGraphicalEditPart, ConnectionLayer)] failure *)
  include_deprecated : bool;  (** include [@Deprecated] members *)
  restrict_obj_string_params : bool;
      (** Section 4.3: drop elementary jungloids whose input is an [Object]-
          or [String]-typed parameter; mined examples (Mining.Objparam)
          re-add the viable ones *)
}

val default_config : config
(** [include_protected = false], [include_deprecated = true],
    [restrict_obj_string_params = false] *)

val elems_of_decl : ?config:config -> Decl.t -> Elem.t list
(** The elementary jungloids contributed by one declaration, excluding
    widening (which is derived from the hierarchy, not the declaration).
    Elementary jungloids whose output is not a reference type are omitted —
    they cannot produce an object. The list is deduped keep-first: a
    member declared twice contributes its elems once, at the first
    declaration's position — exactly the edges {!build} adds. *)

val build : ?config:config -> Hierarchy.t -> Graph.t
(** Build the signature graph for a whole hierarchy. Edges go in with
    {!Graph.append_edge}: each declaration's elems and direct supertypes
    are deduped here, so the graph's global duplicate table is never built
    unless a later {!Graph.add_edge} needs it. *)

val add_all_downcasts : Graph.t -> Hierarchy.t -> int
(** Figure 3 mode: add a downcast edge from every real class node to every
    strict subtype node. Returns the number of edges added. Intended for
    small illustrative graphs only. *)
