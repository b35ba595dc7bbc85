(** The per-function typechecker: builds the Lithium goal for a function
    against its specification and runs the interpreter (step (B) of
    Figure 2).

    The goal has one branch for the function entry (arguments and
    preconditions assumed, body checked from the entry block) and one
    branch per loop-invariant block (the invariant assumed for fresh
    universals, the loop body checked once).  Jumping *to* an invariant
    block proves the invariant (rule T-GOTO). *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
open Rtype
open Lang
open Convert

type fn_to_check = {
  func : Syntax.func;
  spec : fn_spec;
  invs : (string * loop_inv) list;
  meta : fn_meta;
}

(** Location term of a C variable's stack slot. *)
let slot_term (x : string) : term = Var (x ^ "#loc", Sort.Loc)

(** Pure facts implied by an argument type, available even in loop
    branches (argument refinements are persistent knowledge). *)
let rec pure_facts_of_arg (ty : rtype) : prop list =
  match ty with
  | TInt (it, n) -> Convert.int_bounds_props it n
  | TOwn (Some p, t) -> p_ne p NullLoc :: pure_facts_of_arg t
  | TOwn (None, t) -> pure_facts_of_arg t
  | TConstr (t, phi) -> phi :: pure_facts_of_arg t
  | TArrayInt (_, len, xs) -> [ PEq (Length xs, len); PLe (Num 0, len) ]
  | _ -> []

let check_fn ?(globals = []) ?(obs = Rc_util.Obs.off) ~(session : Session.t)
    ~(specs : (string * fn_spec) list) (ftc : fn_to_check) :
    (E.result, Rc_lithium.Report.t) result =
  let te = session.Session.tenv in
  let func = ftc.func and spec = ftc.spec in
  let env =
    List.map (fun (x, _) -> (x, slot_term x)) (func.Syntax.args @ func.Syntax.locals)
    @ globals
  in
  let sigma =
    {
      fc_func = func;
      fc_spec = spec;
      fc_specs = specs;
      fc_invs = ftc.invs;
      fc_env = env;
      fc_penv = [];
      fc_meta = ftc.meta;
      fc_depth = 0;
    }
  in
  let locals_intro g =
    List.fold_right
      (fun (x, layout) g ->
        G.Wand
          ( G.LAtom (LocTy (slot_term x, TUninit (Num (Layout.size layout)))),
            g ))
      func.Syntax.locals g
  in
  (* open the universally quantified parameters, substituting them through
     the spec *)
  let with_params (body : (string * term) list -> goal) : goal =
    let rec go acc = function
      | [] -> body (List.rev acc)
      | (x, s) :: rest -> G.All (x, s, fun t -> go ((x, t) :: acc) rest)
    in
    go [] spec.fs_params
  in
  let entry_branch =
    with_params (fun penv ->
        let arg_tys = List.map (subst_rtype penv) spec.fs_args in
        if List.length arg_tys <> List.length func.Syntax.args then
          (* arity mismatch between spec and code: unprovable *)
          G.Star (G.LProp PFalse, G.True_)
        else
          let spec' =
            subst_spec penv { spec with fs_params = [] }
          in
          let sigma = { sigma with fc_spec = spec'; fc_penv = penv } in
          let args_intro g =
            List.fold_right2
              (fun (x, _) ty g -> G.Wand (intro_loc te (slot_term x) ty, g))
              func.Syntax.args arg_tys g
          in
          args_intro
            (locals_intro
               (G.Wand
                  ( intro_hres_list te (List.map (subst_hres penv) spec.fs_pre),
                    G.Basic
                      (FBlock { sigma; label = func.Syntax.entry; idx = 0 })
                  ))))
  in
  let inv_branch (label, inv) =
    with_params (fun penv ->
        let spec' = subst_spec penv { spec with fs_params = [] } in
        let sigma = { sigma with fc_spec = spec'; fc_penv = penv } in
        (* persistent pure knowledge: pure preconditions and argument
           refinement facts *)
        let pure_pre =
          List.filter_map
            (function HProp p -> Some (subst_prop penv p) | HAtom _ -> None)
            spec.fs_pre
          @ List.concat_map
              (fun ty -> pure_facts_of_arg (subst_rtype penv ty))
              spec.fs_args
        in
        let frame =
          Convert.unlisted_frame sigma (List.map fst inv.li_vars)
        in
        let rec open_exists acc = function
          | [] ->
              let env' = acc @ penv in
              let vars_intro g =
                List.fold_right
                  (fun (x, ty) g ->
                    match List.assoc_opt x sigma.fc_env with
                    | Some l ->
                        G.Wand (intro_loc te l (subst_rtype env' ty), g)
                    | None -> g)
                  inv.li_vars
                  (List.fold_right
                     (fun (l, ty) g -> G.Wand (intro_loc te l ty, g))
                     frame g)
              in
              G.Wand
                ( G.lstars (List.map (fun p -> G.LProp (subst_prop env' p))
                     inv.li_constraints),
                  vars_intro (G.Basic (FBlock { sigma; label; idx = 0 })) )
              |> fun g ->
              G.Wand (G.lstars (List.map (fun p -> G.LProp p) pure_pre), g)
          | (x, s) :: rest ->
              G.All (x, s, fun t -> open_exists ((x, t) :: acc) rest)
        in
        open_exists [] inv.li_exists)
  in
  let goal =
    G.AndG
      ((None, entry_branch)
      :: List.map
           (fun (label, inv) ->
             ( Some (Printf.sprintf "loop invariant block %s" label),
               inv_branch (label, inv) ))
           ftc.invs)
  in
  let opts =
    {
      E.o_memo = session.Session.memo.Session.mm_enabled;
      o_memo_max = session.Session.memo.Session.mm_max;
      o_fx =
        (if session.Session.fx.Session.f_enabled then
           Some session.Session.fx.Session.f_limits
         else None);
    }
  in
  E.run_indexed session.Session.index ~registry:session.Session.registry
    ~gs:session.Session.gs ~env:te ~tactics:spec.fs_tactics
    ~budget:session.Session.budget ~obs ~opts goal

(* ------------------------------------------------------------------ *)
(* Verification-cache keys                                             *)
(* ------------------------------------------------------------------ *)

(* A check's outcome is a pure function of the function body, its spec,
   the loop invariants, the specs it may call, the rule set + solver
   registry + type definitions + ablation switches, and the resource
   budget.  Everything below prints those deterministically; the driver
   digests the concatenation into the on-disk cache key. *)

let type_defs_signature (te : Rtype.tenv) : string =
  (* definition *content* via a one-step unfold at canonical arguments,
     so editing a registered type invalidates entries that may use it *)
  Hashtbl.fold (fun name td acc -> (name, td) :: acc) te []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, (td : Rtype.type_def)) ->
         let args =
           List.map (fun (x, s) -> Term.Var (x, s)) td.Rtype.td_params
         in
         name ^ "="
         ^ (try Rtype.rtype_to_string (td.Rtype.td_unfold args)
            with _ -> "<unfold-error>"))
  |> String.concat ";"

(** Everything in the session's configuration that can change verdicts:
    the compiled rule set, the solver/lemma registry (with its hooks and
    the default-only ablation), the type definitions, and the goal-simp
    configuration.  Keying the cache on the *session* — not on any
    global state — is what lets two concurrently-live sessions with
    different configs share one cache directory without ever sharing a
    verdict. *)
(* The lint configuration's contribution to the cache key.  Linting
   never changes a verdict, but [l_werror] changes exit codes and the
   enabled-pass set changes the diagnostics a cached run would have to
   replay, so a cache hit must not cross lint configurations. *)
let lint_signature (l : Session.lint_cfg) : string =
  Fmt.str "lint:%b|passes:%s|werror:%b" l.Session.l_enabled
    (match l.Session.l_passes with
    | None -> "*"
    | Some ps -> String.concat "," ps)
    l.Session.l_werror

(* The version tag must be bumped whenever the Marshal'd payload layout
   changes (it serializes [Stats.t]); "v3" added the memo counters.  The
   memo configuration itself is deliberately *not* part of the key: a
   hit never changes verdicts or Figure-7 counts, so memo-on and
   memo-off runs may share entries.  A [--pgo] profile does enter the
   key, via the reordered index's fingerprint. *)
let toolchain_fingerprint (session : Session.t) : string =
  Rc_util.Vercache.fingerprint
    [
      (* v4: cone-keyed incremental entries joined the store; bumping the
         tag orphans every v3 whole-file entry so the two key families
         can never alias.  v5: the lint registry gained the concurrency
         passes (race/lockrel/lockord) — cached diagnostics from the
         five-pass registry would silently miss RC-L03x reports *)
      "refinedc-check-v5";
      Sys.ocaml_version;
      Rules.fingerprint session.Session.index;
      Registry.fingerprint session.Session.registry;
      type_defs_signature session.Session.tenv;
      "goal_simp:"
      ^ String.concat ","
          (Rc_lithium.Evar.simp_cfg_names session.Session.gs);
      lint_signature session.Session.lint;
    ]

let budget_signature (b : Rc_util.Budget.limits) : string =
  let num pp = Fmt.(option ~none:(any "none") pp) in
  Fmt.str "fuel:%a|timeout:%a|depth:%a" (num Fmt.int) b.Rc_util.Budget.fuel
    (num Fmt.float) b.Rc_util.Budget.timeout (num Fmt.int)
    b.Rc_util.Budget.max_depth

let invs_signature (invs : (string * loop_inv) list) : string =
  let binder ppf (x, srt) = Fmt.pf ppf "%s:%a" x Sort.pp srt in
  let var ppf (x, ty) = Fmt.pf ppf "%s:%a" x Rtype.pp_rtype ty in
  let inv ppf (label, (i : loop_inv)) =
    Fmt.pf ppf "%s{ex:%a|vars:%a|cstr:%a}" label
      Fmt.(list ~sep:comma binder)
      i.li_exists
      Fmt.(list ~sep:comma var)
      i.li_vars
      Fmt.(list ~sep:comma Term.pp_prop)
      i.li_constraints
  in
  Fmt.str "%a" Fmt.(list ~sep:semi inv) invs

(** The cache key for one function's check.  [specs_digest] covers the
    specifications of *all* functions in the file: a call's premise
    depends on the callee's spec, so any spec edit conservatively
    invalidates the whole file's entries (bodies of siblings do not). *)
let cache_key ~(session : Session.t) ~(specs_digest : string)
    (ftc : fn_to_check) : string =
  String.concat "\x00"
    [
      toolchain_fingerprint session;
      specs_digest;
      Syntax.show_func ftc.func;
      Rtype.spec_signature ftc.spec;
      invs_signature ftc.invs;
      budget_signature session.Session.budget;
    ]

(* ------------------------------------------------------------------ *)
(* Whole-program checking                                              *)
(* ------------------------------------------------------------------ *)

type program_result = {
  fn_results : (string * (E.result, Rc_lithium.Report.t) result) list;
}

let check_program ?(globals = []) ~(session : Session.t)
    (fns : fn_to_check list) : program_result =
  let specs = List.map (fun f -> (f.spec.fs_name, f.spec)) fns in
  {
    fn_results =
      List.map
        (fun f -> (f.spec.fs_name, check_fn ~globals ~session ~specs f))
        fns;
  }

let all_ok (r : program_result) =
  List.for_all (fun (_, res) -> Result.is_ok res) r.fn_results
