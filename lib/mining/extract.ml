module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Decl = Javamodel.Decl
module Hierarchy = Javamodel.Hierarchy
module Tast = Minijava.Tast
module Elem = Prospector.Elem
module Pool = Prospector_parallel.Pool

type example = {
  input : Jtype.t;
  elems : Elem.t list;
  origin : string;
}

(* A chain is an (input type, reversed elems) pair whose output type — the
   type produced by the head of the reversed list — is tracked by the
   caller. *)
type chain = {
  c_input : Jtype.t;
  c_rev : Elem.t list;
  c_len : int;  (* non-widening elems *)
}

let empty_chain ty = { c_input = ty; c_rev = []; c_len = 0 }

let push_elem ch e =
  { ch with c_rev = e :: ch.c_rev; c_len = ch.c_len + Elem.cost e }

(* Widen the chain's current output [from_] to [to_]; drop the chain (None)
   if the conversion is not a widening — that data-flow edge was an
   artifact of context-insensitive parameter wiring. *)
let widen_chain h ch ~from_ ~to_ =
  if Jtype.equal from_ to_ then Some ch
  else if Hierarchy.is_subtype h from_ to_ then
    Some { ch with c_rev = Elem.Widen { from_; to_ } :: ch.c_rev }
  else None

let rec returns_of_stmts acc = function
  | [] -> acc
  | Tast.Treturn (Some e) :: rest -> returns_of_stmts (e :: acc) rest
  | Tast.Tif (_, a, b) :: rest ->
      returns_of_stmts (returns_of_stmts (returns_of_stmts acc a) b) rest
  | Tast.Twhile (_, body) :: rest -> returns_of_stmts (returns_of_stmts acc body) rest
  | (Tast.Tlocal _ | Tast.Tassign _ | Tast.Tfield_assign _ | Tast.Texpr _
    | Tast.Treturn None)
    :: rest ->
      returns_of_stmts acc rest

let returns_of_meth (m : Tast.tmeth) = List.rev (returns_of_stmts [] m.Tast.body)

let ref_param_indices params =
  List.concat
    (List.mapi (fun i (_, ty) -> if Jtype.is_reference ty then [ i ] else []) params)

type budget = {
  mutable remaining : int;
  max_len : int;
}

(* Every complete chain is born at a terminal, so charging the budget there
   bounds the number of examples extracted for the cast (the paper's
   per-cast cap). Once exhausted, every trace returns []. *)
let terminal budget ch =
  if budget.remaining <= 0 then []
  else begin
    budget.remaining <- budget.remaining - 1;
    [ ch ]
  end

(* Trace the producers of [e] (evaluated in method [key]) backward. Returns
   chains whose output type equals [e.ty] exactly. [visiting] prevents
   cycles through variable slots and inlined methods. *)
let rec trace df budget visiting key (e : Tast.texpr) : chain list =
  if budget.remaining <= 0 then []
  else
    let h = (Analysis.Dataflow.program df).Tast.hierarchy in
    match e.Tast.tdesc with
    | Tast.Tnull | Tast.Tint _ | Tast.Tbool _ | Tast.Thole -> []
    | Tast.Tstring _ -> terminal budget (empty_chain Jtype.string_t)
    | Tast.Tclass_lit _ -> terminal budget (empty_chain e.Tast.ty)
    | Tast.Tvar v ->
        let slot = "var:" ^ key ^ "#" ^ v in
        if List.mem slot visiting then []
        else
          let visiting = slot :: visiting in
          if Analysis.Dataflow.is_param df ~method_key:key ~var:v then begin
            match Analysis.Dataflow.param_producers df ~method_key:key ~var:v with
            | [] -> terminal budget (empty_chain e.Tast.ty)
            | producers ->
                collect budget producers ~f:(fun (caller_key, arg) ->
                    trace df budget visiting caller_key arg
                    |> List.filter_map (fun ch ->
                           widen_chain h ch ~from_:arg.Tast.ty ~to_:e.Tast.ty))
          end
          else begin
            (* flow-sensitive mode narrows to the defs reaching this use *)
            let producers =
              match Analysis.Dataflow.reaching_defs df e with
              | Some defs -> defs
              | None -> Analysis.Dataflow.var_producers df ~method_key:key ~var:v
            in
            match producers with
            | [] -> terminal budget (empty_chain e.Tast.ty)
            | producers ->
                collect budget producers ~f:(fun p ->
                    trace df budget visiting key p
                    |> List.filter_map (fun ch ->
                           widen_chain h ch ~from_:p.Tast.ty ~to_:e.Tast.ty))
          end
    | Tast.Tcast (to_, inner) ->
        trace df budget visiting key inner
        |> List.filter_map (fun ch ->
               if ch.c_len + 1 > budget.max_len then None
               else
                 Some (push_elem ch (Elem.Downcast { from_ = inner.Tast.ty; to_ })))
    | Tast.Tfield (_recv, owner, f) when Analysis.Dataflow.is_corpus_class df owner ->
        (* A corpus class's field is not an API element: inline through the
           corpus-wide assignments to it. *)
        let slot = "field:" ^ Qname.to_string owner ^ "#" ^ f.Member.fname in
        if List.mem slot visiting then []
        else
          let visiting = slot :: visiting in
          collect budget
            (Analysis.Dataflow.field_producers df ~owner ~field:f.Member.fname)
            ~f:(fun p ->
              trace df budget visiting key p
              |> List.filter_map (fun ch ->
                     widen_chain h ch ~from_:p.Tast.ty ~to_:e.Tast.ty))
    | Tast.Tfield (recv, owner, f) ->
        if f.Member.fstatic then
          terminal budget
            (push_elem (empty_chain Jtype.Void) (Elem.Field_access { owner; field = f }))
        else
          let elem = Elem.Field_access { owner; field = f } in
          trace df budget visiting key recv
          |> List.filter_map (fun ch ->
                 if ch.c_len + 1 > budget.max_len then None
                 else
                   Option.map
                     (fun ch -> push_elem ch elem)
                     (widen_chain h ch ~from_:recv.Tast.ty ~to_:(Jtype.ref_ owner)))
    | Tast.Tstatic_field (owner, f) ->
        terminal budget
          (push_elem (empty_chain Jtype.Void) (Elem.Field_access { owner; field = f }))
    | Tast.Tnew (q, args) ->
        let ctor =
          match Hierarchy.find_opt h q with
          | Some d -> (
              match
                List.find_opt
                  (fun (c : Member.ctor) ->
                    List.length c.Member.cparams = List.length args)
                  d.Decl.ctors
              with
              | Some c -> c
              | None -> Member.ctor [])
          | None -> Member.ctor []
        in
        let mk input = Elem.Ctor_call { owner = q; ctor; input } in
        call_chains df budget visiting key ~params:ctor.Member.cparams ~args
          ~recv:None ~mk
    | Tast.Tstatic_call (owner, m, args) -> (
        match
          Analysis.Dataflow.corpus_static_callee df ~owner ~name:m.Member.mname
            ~arity:(List.length args)
        with
        | Some callee -> inline_chains df budget visiting callee ~declared_ret:e.Tast.ty
        | None ->
            let mk input = Elem.Static_call { owner; meth = m; input } in
            call_chains df budget visiting key ~params:m.Member.params ~args ~recv:None
              ~mk)
    | Tast.Tcall (recv, owner, m, args) -> (
        let callees =
          Analysis.Dataflow.corpus_callees df ~recv_type:recv.Tast.ty ~name:m.Member.mname
            ~arity:(List.length args)
        in
        match callees with
        | _ :: _ ->
            (* Client methods are always inlined, never elementary. *)
            collect budget callees ~f:(fun callee ->
                inline_chains df budget visiting callee ~declared_ret:e.Tast.ty)
        | [] ->
            let mk input = Elem.Instance_call { owner; meth = m; input } in
            call_chains df budget visiting key ~params:m.Member.params ~args
              ~recv:(Some (recv, Jtype.ref_ owner)) ~mk)

(* Branch over the possible data-flow inputs of a call: the receiver (when
   present) and every reference-typed argument. A call with no reference
   inputs is a zero-argument expression and terminates the walk. *)
and call_chains df budget visiting key ~params ~args ~recv ~mk =
  let h = (Analysis.Dataflow.program df).Tast.hierarchy in
  let ref_idxs = ref_param_indices params in
  let recv_branch =
    match recv with
    | None -> []
    | Some (r, owner_ty) ->
        trace df budget visiting key r
        |> List.filter_map (fun ch ->
               if ch.c_len + 1 > budget.max_len then None
               else
                 Option.map
                   (fun ch -> push_elem ch (mk Elem.Receiver))
                   (widen_chain h ch ~from_:r.Tast.ty ~to_:owner_ty))
  in
  let arg_branches =
    collect budget ref_idxs ~f:(fun i ->
        match List.nth_opt args i with
        | None -> []
        | Some arg ->
            let _, pty = List.nth params i in
            trace df budget visiting key arg
            |> List.filter_map (fun ch ->
                   if ch.c_len + 1 > budget.max_len then None
                   else
                     Option.map
                       (fun ch -> push_elem ch (mk (Elem.Param i)))
                       (widen_chain h ch ~from_:arg.Tast.ty ~to_:pty)))
  in
  let zero_input =
    if recv = None && ref_idxs = [] then
      terminal budget (push_elem (empty_chain Jtype.Void) (mk Elem.No_input))
    else []
  in
  zero_input @ recv_branch @ arg_branches

(* Inline a corpus method: its value is whatever its return expressions
   produce. *)
and inline_chains df budget visiting (callee : Tast.tmeth) ~declared_ret =
  let h = (Analysis.Dataflow.program df).Tast.hierarchy in
  let ckey = Tast.method_key callee in
  let slot = "inline:" ^ ckey in
  if List.mem slot visiting then []
  else
    let visiting = slot :: visiting in
    collect budget (returns_of_meth callee) ~f:(fun ret_expr ->
        trace df budget visiting ckey ret_expr
        |> List.filter_map (fun ch ->
               widen_chain h ch ~from_:ret_expr.Tast.ty ~to_:declared_ret))

and collect : 'a. budget -> 'a list -> f:('a -> chain list) -> chain list =
 fun budget items ~f ->
  List.concat_map
    (fun item -> if budget.remaining <= 0 then [] else f item)
    items

let finish_chain origin ch = { input = ch.c_input; elems = List.rev ch.c_rev; origin }

(* The old in-house predicate — composition equality plus conversion
   direction — is now the analyzer's job; the verifier additionally checks
   that every referenced member really is declared. *)
let example_well_typed h ex =
  match ex.elems with
  | [] -> false
  | first :: _ ->
      Jtype.equal (Elem.input_type first) ex.input
      && Analysis.Verify.sound h
           (Prospector.Jungloid.make ~input:ex.input ex.elems)

(* Examples must come from working client code: a method with
   error-severity lint (a variable read that can never be assigned, an
   impossible cast) is not working code, so its cast sites are skipped.
   Memoized — a method hosts many sites. *)
let lint_gate_of df =
  let memo = Hashtbl.create 16 in
  fun key ->
    match Hashtbl.find_opt memo key with
    | Some bad -> bad
    | None ->
        let bad =
          match Analysis.Dataflow.find_method df ~key with
          | Some m -> Analysis.Corpuslint.method_has_errors df m
          | None -> false
        in
        Hashtbl.add memo key bad;
        bad

let extract_common ?(max_per_cast = 64) ?(max_len = 12) ?(lint_gate = true)
    ?(pool = Pool.sequential) ~df ~sites () =
  (* The lint gate is evaluated sequentially up front, one verdict per
     distinct method key: the memo behind [lint_gate_of] mutates on miss,
     which a fan-out must not share. Everything the per-site walk reads
     after this point — the data-flow indexes, the hierarchy's subtype
     checks — is immutable, and each site owns its budget, so sites are
     independent jobs. [Pool.map_list] keeps site order, hence output order
     (and therefore the mined graph) is identical at any job count. *)
  let gate =
    if not lint_gate then fun _ -> false
    else begin
      let g = lint_gate_of df in
      let verdicts = Hashtbl.create 16 in
      List.iter
        (fun (key, _, _) ->
          if not (Hashtbl.mem verdicts key) then Hashtbl.replace verdicts key (g key))
        sites;
      Hashtbl.find verdicts
    end
  in
  Hierarchy.warm (Analysis.Dataflow.program df).Tast.hierarchy;
  List.concat
    (Pool.map_list pool
       (fun (key, origin, mk_chains) ->
         if lint_gate && gate key then []
         else begin
           let budget = { remaining = max_per_cast; max_len } in
           let chains = mk_chains budget in
           (* Enforce the cap exactly (collect only short-circuits between
              items). *)
           let chains = List.filteri (fun i _ -> i < max_per_cast) chains in
           List.map (finish_chain origin) chains
         end)
       sites)

let extract ?max_per_cast ?max_len ?lint_gate ?pool df =
  let sites =
    List.mapi
      (fun i ((m : Tast.tmeth), cast_expr) ->
        let key = Tast.method_key m in
        let origin = Printf.sprintf "%s:cast-%d" key i in
        ( key,
          origin,
          fun budget ->
            (* The cast expression itself is the end of the example. *)
            trace df budget [] key cast_expr ))
      (Analysis.Dataflow.casts df)
  in
  extract_common ?max_per_cast ?max_len ?lint_gate ?pool ~df ~sites ()

let extract_for_arg ?max_per_cast ?max_len ?lint_gate ?pool df ~is_target =
  (* Find call sites with a reference argument in a targeted parameter
     position; the final elem is the call with input = that parameter. *)
  let sites = ref [] in
  let idx = ref 0 in
  List.iter
    (fun (m : Tast.tmeth) ->
      let key = Tast.method_key m in
      Tast.iter_exprs m.Tast.body (fun e ->
          match e.Tast.tdesc with
          | Tast.Tcall (_, owner, meth, args) | Tast.Tstatic_call (owner, meth, args)
            -> (
              let static = match e.Tast.tdesc with Tast.Tstatic_call _ -> true | _ -> false in
              List.iteri
                (fun i (_, pty) ->
                  if is_target pty then
                    match List.nth_opt args i with
                    | Some arg when Jtype.is_reference arg.Tast.ty ->
                        let origin = Printf.sprintf "%s:arg-%d" key !idx in
                        incr idx;
                        let mk input =
                          if static then Elem.Static_call { owner; meth; input }
                          else Elem.Instance_call { owner; meth; input }
                        in
                        sites :=
                          ( key,
                            origin,
                            fun budget ->
                              let hh = (Analysis.Dataflow.program df).Tast.hierarchy in
                              trace df budget [] key arg
                              |> List.filter_map (fun ch ->
                                     if ch.c_len + 1 > budget.max_len then None
                                     else
                                       Option.map
                                         (fun ch -> push_elem ch (mk (Elem.Param i)))
                                         (widen_chain hh ch ~from_:arg.Tast.ty ~to_:pty))
                          )
                          :: !sites
                    | _ -> ())
                meth.Member.params)
          | _ -> ()))
    (Analysis.Dataflow.program df).Tast.methods;
  extract_common ?max_per_cast ?max_len ?lint_gate ?pool ~df ~sites:(List.rev !sites) ()
