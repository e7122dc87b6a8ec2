(* Receiver-sequence reconstruction for the protocol miner. See
   protomine.mli for the tracking rules. *)

module Qname = Javamodel.Qname
module Jtype = Javamodel.Jtype
module Member = Javamodel.Member
module Tast = Minijava.Tast
module Dataflow = Analysis.Dataflow
module Protocol = Analysis.Protocol

let label (m : Member.meth) =
  Printf.sprintf "%s/%d" m.mname (List.length m.params)

let call_label owner (m : Member.meth) =
  Qname.to_string owner ^ "." ^ label m

(* How an expression produces its value, for [seq_producer]. Variables
   resolve through the def-use index (first producer in source order;
   parameters follow the first corpus call site), guarded by a visited set
   so assignment cycles degrade to [Unknown]. *)
let rec producer_of_expr df ~visited ~method_key (e : Tast.texpr) =
  match e.tdesc with
  | Tcast _ -> Protocol.Cast
  | Tcall (_, owner, m, _) -> Protocol.Call (call_label owner m)
  | Tstatic_call (owner, m, _) -> Protocol.Call (call_label owner m)
  | Tnew (owner, _) -> Protocol.New (Qname.to_string owner)
  | Tfield (_, owner, f) ->
      Protocol.Field (Qname.to_string owner ^ "." ^ f.Member.fname)
  | Tstatic_field (owner, f) ->
      Protocol.Field (Qname.to_string owner ^ "." ^ f.Member.fname)
  | Tvar v -> var_producer df ~visited ~method_key v
  | Tnull | Tstring _ | Tint _ | Tbool _ | Tclass_lit _ | Thole ->
      Protocol.Unknown

and var_producer df ~visited ~method_key v =
  if List.mem (method_key, v) visited || List.length visited > 8 then
    Protocol.Unknown
  else
    let visited = (method_key, v) :: visited in
    if Analysis.Dataflow.is_param df ~method_key ~var:v then
      match Analysis.Dataflow.param_producers df ~method_key ~var:v with
      | [] -> Protocol.Param
      | (caller_key, arg) :: _ ->
          producer_of_expr df ~visited ~method_key:caller_key arg
    | exception Not_found -> Protocol.Unknown
    else
      match Analysis.Dataflow.var_producers df ~method_key ~var:v with
      | [] -> Protocol.Unknown
      | e :: _ -> producer_of_expr df ~visited ~method_key e

(* Walk a method body in evaluation order (receiver, then arguments, then
   the call itself), feeding call events to the sinks:
   - [emit_var v ty ev]: [ev] happened to the local/parameter [v];
   - [emit_anon seq]: a receiver with no name (an inline producing
     expression) accumulated [seq] — chains decompose pairwise, each link
     a one-event sequence produced by the previous link.
   [visited] carries the interprocedural splice stack: passing a tracked
   variable as argument [i] to a corpus method appends the events that
   method's body performs on parameter [i] (recursively, cycle-guarded). *)
let rec scan df ~visited ~(meth : Tast.tmeth) ~emit_var ~emit_anon =
  let method_key = Tast.method_key meth in
  let event (m : Member.meth) loc ~discarded =
    {
      Protocol.ev_meth = label m;
      ev_loc = loc;
      ev_void = m.ret = Jtype.Void;
      ev_discarded = discarded;
    }
  in
  let record_receiver (recv : Tast.texpr) m loc ~discarded =
    let ev = event m loc ~discarded in
    match (recv.tdesc, recv.ty) with
    | Tvar v, Jtype.Ref _ -> emit_var v recv.ty ev
    | _, Jtype.Ref _ ->
        emit_anon
          {
            Protocol.seq_type = Jtype.to_string recv.ty;
            seq_producer = producer_of_expr df ~visited:[] ~method_key recv;
            seq_loc = recv.loc;
            seq_events = [ ev ];
          }
    | _ -> ()
  in
  let splice_args callee args =
    match callee with
    | None -> ()
    | Some (cm : Tast.tmeth) ->
        List.iteri
          (fun i (a : Tast.texpr) ->
            match (List.nth_opt cm.params i, a.ty) with
            | Some (pname, _), Jtype.Ref _ -> (
                match a.tdesc with
                | Tvar v ->
                    List.iter
                      (fun ev -> emit_var v a.ty ev)
                      (param_events df ~visited cm pname)
                | Tnull | Tstring _ | Tint _ | Tbool _ | Tclass_lit _ | Thole
                  ->
                    ()
                | _ -> (
                    match param_events df ~visited cm pname with
                    | [] -> ()
                    | events ->
                        emit_anon
                          {
                            Protocol.seq_type = Jtype.to_string a.ty;
                            seq_producer =
                              producer_of_expr df ~visited:[] ~method_key a;
                            seq_loc = a.loc;
                            seq_events = events;
                          }))
            | _ -> ())
          args
  in
  let rec expr ?(discarded = false) (e : Tast.texpr) =
    match e.tdesc with
    | Tcall (recv, _, m, args) ->
        expr recv;
        List.iter (fun a -> expr a) args;
        record_receiver recv m e.loc ~discarded;
        splice_args
          (match
             Analysis.Dataflow.corpus_callees df ~recv_type:recv.ty ~name:m.mname
               ~arity:(List.length m.params)
           with
          | callee :: _ -> Some callee
          | [] -> None)
          args
    | Tstatic_call (owner, m, args) ->
        List.iter (fun a -> expr a) args;
        splice_args
          (Analysis.Dataflow.corpus_static_callee df ~owner ~name:m.mname
             ~arity:(List.length m.params))
          args
    | Tnew (_, args) -> List.iter (fun a -> expr a) args
    | Tcast (_, inner) | Tfield (inner, _, _) -> expr inner
    | Tvar _ | Tnull | Tstring _ | Tint _ | Tbool _ | Tclass_lit _
    | Tstatic_field _ | Thole ->
        ()
  in
  let rec stmt (s : Tast.tstmt) =
    match s with
    | Tlocal (_, _, init) -> Option.iter (fun e -> expr e) init
    | Tassign (_, e) | Tfield_assign (_, _, e) -> expr e
    | Texpr e -> expr ~discarded:true e
    | Treturn e -> Option.iter (fun e -> expr e) e
    | Tif (c, a, b) ->
        expr c;
        List.iter stmt a;
        List.iter stmt b
    | Twhile (c, b) ->
        expr c;
        List.iter stmt b
  in
  List.iter stmt meth.body

(* Events a corpus method performs on one of its parameters, for splicing
   into a caller's argument. The visited stack caps recursion through
   call cycles. *)
and param_events df ~visited (cm : Tast.tmeth) pname =
  let ckey = Tast.method_key cm in
  if List.mem (ckey, pname) visited then []
  else begin
    let acc = ref [] in
    let emit_var v _ty ev = if v = pname then acc := ev :: !acc in
    scan df
      ~visited:((ckey, pname) :: visited)
      ~meth:cm ~emit_var
      ~emit_anon:(fun _ -> ());
    List.rev !acc
  end

let method_sequences df (meth : Tast.tmeth) =
  let key = Tast.method_key meth in
  let streams : (string, Protocol.event list ref * Jtype.t) Hashtbl.t =
    Hashtbl.create 7
  in
  let order = ref [] in
  let anon = ref [] in
  let emit_var v ty ev =
    match Hashtbl.find_opt streams v with
    | Some (evs, _) -> evs := ev :: !evs
    | None ->
        Hashtbl.replace streams v (ref [ ev ], ty);
        order := v :: !order
  in
  let emit_anon seq = anon := seq :: !anon in
  scan df ~visited:[] ~meth ~emit_var ~emit_anon;
  let var_seqs =
    List.rev !order
    |> List.filter_map (fun v ->
           let evs, ty = Hashtbl.find streams v in
           (* A parameter with corpus callers is already accounted for by
              splicing at each call site. *)
           let spliced_elsewhere =
             Analysis.Dataflow.is_param df ~method_key:key ~var:v
             && Analysis.Dataflow.param_producers df ~method_key:key ~var:v <> []
           in
           match List.rev !evs with
           | [] -> None
           | _ when spliced_elsewhere -> None
           | first :: _ as events ->
               Some
                 {
                   Protocol.seq_type = Jtype.to_string ty;
                   seq_producer = var_producer df ~visited:[] ~method_key:key v;
                   seq_loc = first.Protocol.ev_loc;
                   seq_events = events;
                 })
  in
  var_seqs @ List.rev !anon

let sequences df =
  let prog = Analysis.Dataflow.program df in
  List.concat_map (method_sequences df) prog.Tast.methods

let of_dataflow ?min_evidence df = Protocol.learn ?min_evidence (sequences df)
let mine ?min_evidence prog = of_dataflow ?min_evidence (Analysis.Dataflow.build prog)
