(** The function-level dependency graph behind incremental verification.

    RefinedC's checking is compositional by construction: verifying one
    function consults, besides the session configuration, exactly its
    own Caesium body, its own specification and loop invariants, and the
    specifications of the functions it *directly* references (the
    [fc_specs] lookups happen only at [FnAddr f] expressions and at
    [VarLoc x] names that are not stack slots — see [Rules_expr] and
    [Rules_stmt.direct_callee]).  This module makes that input cone
    explicit: a per-file graph whose nodes carry content digests of the
    body/invariants and of the exported interface (the spec signature),
    and whose edges are the direct spec-level dependencies.

    The graph is what the driver keys the verification cache on
    ({!components}): a function's cache key digests its own body + spec
    + invariants and the *interface* digests of its direct callees —
    nothing else from the file.  That gives early cutoff for free: a
    callee body edit that leaves its spec signature unchanged does not
    appear anywhere in a caller's key, so the caller's entry still hits.
    Transitive dependencies are covered inductively — if a transitive
    callee's spec moves, the direct callee re-verifies (its own key
    changed) while the caller is untouched, exactly mirroring how the
    checker itself only ever reads one level of specs. *)

module Syntax = Rc_caesium.Syntax
module SS = Set.Make (String)

type node = {
  n_name : string;
  n_index : int;  (** position in source order *)
  n_deps : string list;
      (** direct dependencies: spec'd siblings this function's body or
          spec references, sorted, self-reference removed *)
  n_body_digest : string;  (** {!Typecheck.body_digest}: body + invariants *)
  n_iface_digest : string;
      (** the exported interface: the spec signature — the only part of
          this function a caller's check can observe *)
}

type t = {
  nodes : (string * node) list;  (** in source order *)
  by_name : (string, node) Hashtbl.t;  (** [nodes], indexed by name *)
  rdeps : (string, string list) Hashtbl.t;
      (** reverse edges: function ↦ its direct callers, sorted *)
}

(* ---- direct-reference extraction --------------------------------- *)

(* Names a body can resolve against the sibling spec table: [FnAddr f]
   anywhere, and [VarLoc x] where [x] is not a stack slot (the expr rule
   falls through to [fc_specs] exactly then). *)
let rec refs_of_expr ~slots (acc : SS.t) (e : Syntax.expr) : SS.t =
  match e with
  | Syntax.FnAddr f -> SS.add f acc
  | Syntax.VarLoc x -> if SS.mem x slots then acc else SS.add x acc
  | Syntax.IntConst _ | Syntax.NullConst -> acc
  | Syntax.Use { arg; _ }
  | Syntax.FieldOfs { arg; _ }
  | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ }
  | Syntax.CastPtrPtr arg ->
      refs_of_expr ~slots acc arg
  | Syntax.BinOp { e1; e2; _ } ->
      refs_of_expr ~slots (refs_of_expr ~slots acc e1) e2

let refs_of_stmt ~slots (acc : SS.t) (s : Syntax.stmt) : SS.t =
  let e = refs_of_expr ~slots in
  match s with
  | Syntax.Assign { lhs; rhs; _ } -> e (e acc lhs) rhs
  | Syntax.Call { dest; fn; args } ->
      let acc = match dest with Some (_, d) -> e acc d | None -> acc in
      List.fold_left (fun acc (_, a) -> e acc a) (e acc fn) args
  | Syntax.Cas { obj; expected; desired; dest; _ } ->
      let acc = match dest with Some (_, d) -> e acc d | None -> acc in
      e (e (e acc obj) expected) desired
  | Syntax.Skip -> acc
  | Syntax.ExprStmt x | Syntax.Free x -> e acc x

let refs_of_term ~slots (acc : SS.t) (term : Syntax.terminator) : SS.t =
  match term with
  | Syntax.Goto _ | Syntax.Unreachable | Syntax.Return None -> acc
  | Syntax.CondGoto { cond; _ } -> refs_of_expr ~slots acc cond
  | Syntax.Switch { scrut; _ } -> refs_of_expr ~slots acc scrut
  | Syntax.Return (Some e) -> refs_of_expr ~slots acc e

let refs_of_func (f : Syntax.func) : SS.t =
  let slots =
    SS.of_list (List.map fst (f.Syntax.args @ f.Syntax.locals))
  in
  List.fold_left
    (fun acc (_, (b : Syntax.block)) ->
      refs_of_term ~slots
        (List.fold_left (refs_of_stmt ~slots) acc b.Syntax.stmts)
        b.Syntax.term)
    SS.empty f.Syntax.blocks

(* Spec-level references: [TFnPtr] types name sibling functions (the
   subsumption rule compares them nominally, and the checker resolves
   the name against [fc_specs]); a spec or invariant mentioning [fn<g>]
   therefore depends on [g]'s interface like a call site does. *)
let rec refs_of_rtype (acc : SS.t) (ty : Rtype.rtype) : SS.t =
  match ty with
  | Rtype.TFnPtr s -> refs_of_spec (SS.add s.Rtype.fs_name acc) s
  | Rtype.TInt _ | Rtype.TBool _ | Rtype.TNull | Rtype.TPtrV _
  | Rtype.TUninit _ | Rtype.TAnyInt _ | Rtype.TArrayInt _
  | Rtype.TNamed _ | Rtype.TManaged _ ->
      acc
  | Rtype.TOwn (_, ty) | Rtype.TConstr (ty, _) | Rtype.TPadded (ty, _) ->
      refs_of_rtype acc ty
  | Rtype.TOptional (_, t1, t2) -> refs_of_rtype (refs_of_rtype acc t1) t2
  | Rtype.TStruct (_, tys) -> List.fold_left refs_of_rtype acc tys
  | Rtype.TWand (a, ty) -> refs_of_rtype (refs_of_atom acc a) ty
  | Rtype.TExists (x, s, f) ->
      refs_of_rtype acc (f (Rc_pure.Term.Var (x, s)))
  | Rtype.TAtomicBool (_, _, h1, h2) ->
      refs_of_hres_list (refs_of_hres_list acc h1) h2

and refs_of_atom acc = function
  | Rtype.LocTy (_, ty) | Rtype.ValTy (_, ty) -> refs_of_rtype acc ty

and refs_of_hres acc = function
  | Rtype.HAtom a -> refs_of_atom acc a
  | Rtype.HProp _ -> acc

and refs_of_hres_list acc hs = List.fold_left refs_of_hres acc hs

and refs_of_spec acc (s : Rtype.fn_spec) : SS.t =
  refs_of_rtype
    (refs_of_hres_list
       (refs_of_hres_list (List.fold_left refs_of_rtype acc s.Rtype.fs_args)
          s.Rtype.fs_pre)
       s.Rtype.fs_post)
    s.Rtype.fs_ret

let refs_of_invs (invs : (string * Lang.loop_inv) list) : SS.t =
  List.fold_left
    (fun acc (_, (i : Lang.loop_inv)) ->
      List.fold_left (fun acc (_, ty) -> refs_of_rtype acc ty) acc
        i.Lang.li_vars)
    SS.empty invs

(* ---- digests ------------------------------------------------------ *)

let digest (s : string) : string = Digest.to_hex (Digest.string s)

let iface_digest (ftc : Typecheck.fn_to_check) : string =
  digest (Rtype.spec_signature ftc.Typecheck.spec)

(* ---- graph construction ------------------------------------------- *)

(** Build the dependency graph of one elaborated file.  Only references
    to *specified* siblings become edges: a call to an unknown name is
    unprovable, fails, and failures are never cached — so the name's
    later appearance re-verifies the caller anyway.  (Appearing or
    disappearing edges change a function's component *list*, which is
    itself part of its cache key.) *)
let build (fns : Typecheck.fn_to_check list) : t =
  let spec'd =
    SS.of_list
      (List.map (fun f -> f.Typecheck.spec.Rtype.fs_name) fns)
  in
  let nodes =
    List.mapi
      (fun i (f : Typecheck.fn_to_check) ->
        let name = f.Typecheck.spec.Rtype.fs_name in
        let refs =
          SS.union
            (refs_of_func f.Typecheck.func)
            (SS.union
               (refs_of_spec SS.empty f.Typecheck.spec)
               (refs_of_invs f.Typecheck.invs))
        in
        let deps =
          SS.elements (SS.remove name (SS.inter refs spec'd))
        in
        ( name,
          {
            n_name = name;
            n_index = i;
            n_deps = deps;
            n_body_digest = Typecheck.body_digest f;
            n_iface_digest = iface_digest f;
          } ))
      fns
  in
  let rdeps_tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, node) ->
      List.iter
        (fun dep ->
          Hashtbl.replace rdeps_tbl dep
            (name
            :: Option.value ~default:[] (Hashtbl.find_opt rdeps_tbl dep)))
        node.n_deps)
    nodes;
  let rdeps =
    Rc_util.Xlist.index
      (List.map
         (fun (name, _) ->
           ( name,
             List.sort compare
               (Option.value ~default:[] (Hashtbl.find_opt rdeps_tbl name)) ))
         nodes)
  in
  { nodes; by_name = Rc_util.Xlist.index nodes; rdeps }

let node (g : t) (name : string) : node option =
  Hashtbl.find_opt g.by_name name

let names (g : t) : string list = List.map fst g.nodes

(** Direct dependencies (spec'd functions this one references). *)
let direct_deps (g : t) (name : string) : string list =
  match node g name with Some n -> n.n_deps | None -> []

(** Direct dependents (spec'd functions that reference this one). *)
let dependents (g : t) (name : string) : string list =
  Option.value ~default:[] (Hashtbl.find_opt g.rdeps name)

(** Dependency-respecting order: callees before callers, source order
    within a stratum; cycles (mutual recursion) are broken at the
    source-order-first member.  This is the cold-run scheduling
    fallback — it is also simply a deterministic order. *)
let topo_order (g : t) : string list =
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit name =
    if (not (Hashtbl.mem done_ name)) && not (Hashtbl.mem visiting name)
    then begin
      Hashtbl.replace visiting name ();
      List.iter visit (direct_deps g name);
      Hashtbl.remove visiting name;
      Hashtbl.replace done_ name ();
      out := name :: !out
    end
  in
  List.iter (fun (name, _) -> visit name) g.nodes;
  List.rev !out

(** The *dirty cone* of an interface change: the transitive dependents
    of [roots], roots included, in source order.  This is what a spec
    edit can at most re-verify; a body edit's cone is just the root
    (early cutoff — bodies are invisible to callers). *)
let cone (g : t) (roots : string list) : string list =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      List.iter visit (dependents g name)
    end
  in
  List.iter visit roots;
  List.filter (Hashtbl.mem seen) (names g)

(* ---- cache-key components ----------------------------------------- *)

(** The named component digests of one function's verification inputs —
    the dependency-cone cache key.  Order is fixed (config, budget,
    body, spec, invariants, then callees sorted by name) so the digested
    concatenation is deterministic; the component *names* let a miss be
    explained by diffing against the last stored manifest
    ({!Rc_util.Vercache.find_keyed}).  [?config] is the session's
    {!Typecheck.toolchain_fingerprint}, computed once per check by a
    caller keying many functions; without it, it is recomputed here. *)
let components ?config ~(session : Session.t) (g : t)
    (ftc : Typecheck.fn_to_check) : (string * string) list =
  let name = ftc.Typecheck.spec.Rtype.fs_name in
  let n =
    match node g name with
    | Some n -> n
    | None ->
        (* a function checked outside its file graph (API single-function
           checks): degrade to an edgeless node — correct, never stale,
           just without sibling sharing *)
        {
          n_name = name;
          n_index = 0;
          n_deps = [];
          n_body_digest = Typecheck.body_digest ftc;
          n_iface_digest = iface_digest ftc;
        }
  in
  [
    ( "config",
      match config with
      | Some c -> c
      | None -> Typecheck.toolchain_fingerprint session );
    ("budget", Typecheck.budget_signature session.Session.budget);
    ("body", n.n_body_digest);
    ("spec", n.n_iface_digest);
  ]
  @ List.filter_map
      (fun dep ->
        Option.map
          (fun dn -> ("callee:" ^ dep, dn.n_iface_digest))
          (node g dep))
      n.n_deps

(** The stable cache identity of one function: what the manifest (the
    miss explainer) is keyed on.  Per (file, function) so two files
    defining the same name do not fight over one manifest. *)
let cache_id ~(file : string) (name : string) : string =
  Rc_util.Vercache.fingerprint [ "rc-cone-id"; file; name ]
