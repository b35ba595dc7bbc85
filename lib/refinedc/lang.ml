(** RefinedC's typing judgments — the basic goals [F] of Lithium (§5–§6).

    Each program construct has a specialized judgment (⊢IF, ⊢BINOP, …)
    parameterized by the types of the values it operates on; the types
    uniquely determine the applicable rule, which is what makes the
    search syntax-directed.  Continuations (the [{v, τ. G}] parts) are
    higher-order, exactly as in the paper's continuation-passing
    judgments. *)

open Rc_pure
open Rc_pure.Term
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype

(** Side tables produced by the frontend: source locations of statements
    and terminators, and human-readable branch descriptions for error
    trails (the "else branch of if on line 11" of §2.1). *)
type fn_meta = {
  fm_stmt_locs : ((string * int) * Rc_util.Srcloc.t) list;
  fm_term_locs : (string * Rc_util.Srcloc.t) list;
  fm_block_descr : (string * string) list;
}

let empty_meta = { fm_stmt_locs = []; fm_term_locs = []; fm_block_descr = [] }

(** Loop invariant (rc::exists / rc::inv_vars / rc::constraints, §2.2). *)
type loop_inv = {
  li_exists : (string * Sort.t) list;
  li_vars : (string * rtype) list;  (** C variable ↦ type of its content *)
  li_constraints : prop list;
}

(** The function state Σ: CFG, specification, loop invariants, the
    variable environment (C variable ↦ location term), specs of callable
    functions, and frontend metadata. *)
type fn_ctx = {
  fc_func : Syntax.func;
  fc_spec : fn_spec;
  fc_specs : (string * fn_spec) list;
  fc_invs : (string * loop_inv) list;
  fc_env : (string * term) list;
  fc_penv : (string * term) list;
      (** instantiation of the spec parameters with this branch's fresh
          universals — applied to loop-invariant annotations *)
  fc_meta : fn_meta;
  fc_depth : int;  (** goto-inlining depth guard (loops need invariants) *)
}

type f =
  | FSubsume of { sub : atom; super : atom; cont : goal }
      (** A₁ <: A₂ {G} *)
  | FBlock of { sigma : fn_ctx; label : string; idx : int }
      (** ⊢STMT: the suffix of block [label] starting at statement [idx] *)
  | FGoto of { sigma : fn_ctx; target : string }
      (** jump to a block: proves the loop invariant if one is declared *)
  | FExpr of { sigma : fn_ctx; expr : Syntax.expr; cont : term -> rtype -> goal }
      (** ⊢EXPR e {v, τ. G} *)
  | FReadLoc of {
      loc_term : term;
      layout : Layout.t;
      atomic : bool;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** typed read: find the atom owning [loc_term], then ⊢READ *)
  | FReadTy of {
      loc_term : term;
      sub_l : term;  (** subject of the atom found in Δ (base of array
                         or uninit block when they differ) *)
      ty : rtype;
      layout : Layout.t;
      atomic : bool;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢READ, dispatching on the type of the location *)
  | FWriteLoc of {
      loc_term : term;
      layout : Layout.t;
      atomic : bool;
      v : term;
      vty : rtype;
      cont : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FWriteTy of {
      loc_term : term;
      sub_l : term;
      ty : rtype;
      layout : Layout.t;
      atomic : bool;
      v : term;
      vty : rtype;
      cont : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FBinop of {
      op : Syntax.binop;
      ot1 : Syntax.ot;
      ot2 : Syntax.ot;
      v1 : term;
      ty1 : rtype;
      v2 : term;
      ty2 : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢BINOP (v₁:τ₁) ⊙ (v₂:τ₂) {v, τ. G} *)
  | FUnop of {
      op : Syntax.unop;
      ot : Syntax.ot;
      v : term;
      ty : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }
  | FCast of {
      from_ : Int_type.t;
      to_ : Int_type.t;
      v : term;
      ty : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }
  | FIf of {
      v : term;
      ty : rtype;
      gthen : goal;
      gelse : goal;
      lbl_then : string option;  (** branch-trail labels for errors *)
      lbl_else : string option;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢IF τ then s₁ else s₂ *)
  | FSwitchJ of {
      v : term;
      ty : rtype;
      cases : (int * goal) list;
      dflt : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FCall of {
      spec : fn_spec;
      args : (term * rtype) list;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** call a function whose (instantiated) spec is known *)
  | FCas of {
      it : Int_type.t;
      vobj : term;
      tobj : rtype;
      vexp : term;
      texp : rtype;
      vdes : term;
      tdes : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢CAS (§6, rule CAS-BOOL) *)

and goal = (f, atom) Rc_lithium.Goal.goal

(* ------------------------------------------------------------------ *)
(* LANG instance                                                       *)
(* ------------------------------------------------------------------ *)

(** Every judgment head, in {!head_id_of_f} order — the valid vocabulary
    for a rule's [heads] declaration (a declared head outside this list
    can never be dispatched to). *)
let all_heads =
  [
    "subsume"; "stmt"; "goto"; "expr"; "read-loc"; "read"; "write-loc";
    "write"; "binop"; "unop"; "cast"; "if"; "switch"; "call"; "cas";
  ]

(* The interned-head vocabulary: [head_id_of_f] must stay aligned with
   [head_names] (same order as [all_heads]). *)
let head_names = Array.of_list all_heads

let head_id_of_f = function
  | FSubsume _ -> 0
  | FBlock _ -> 1
  | FGoto _ -> 2
  | FExpr _ -> 3
  | FReadLoc _ -> 4
  | FReadTy _ -> 5
  | FWriteLoc _ -> 6
  | FWriteTy _ -> 7
  | FBinop _ -> 8
  | FUnop _ -> 9
  | FCast _ -> 10
  | FIf _ -> 11
  | FSwitchJ _ -> 12
  | FCall _ -> 13
  | FCas _ -> 14

(** Memoizable judgments.  ⊢GOTO is the only one: its continuation is
    fully implied by its own data (the target block's code, looked up in
    [sigma]), so its printed identity plus the resolved Δ determines the
    whole subtree.  Every other judgment carries its continuation as a
    closure the printer cannot see.  The key includes the goto-inlining
    depth (it bounds further inlining) and the parameter/variable
    environments, which are the only [sigma] components that vary
    between visits to the same target within one checked function. *)
let memo_key_of_f (resolve : term -> term) = function
  | FGoto { sigma; target } ->
      let b = Buffer.create 128 in
      Buffer.add_string b target;
      Buffer.add_char b '@';
      Buffer.add_string b (string_of_int sigma.fc_depth);
      List.iter
        (fun (x, t) ->
          Buffer.add_char b ';';
          Buffer.add_string b x;
          Buffer.add_char b '=';
          Buffer.add_string b (term_to_string (resolve t)))
        sigma.fc_penv;
      List.iter
        (fun (x, t) ->
          Buffer.add_char b '!';
          Buffer.add_string b x;
          Buffer.add_char b '=';
          Buffer.add_string b (term_to_string (resolve t)))
        sigma.fc_env;
      Some (Buffer.contents b)
  | _ -> None

let stmt_loc sigma label idx =
  List.assoc_opt (label, idx) sigma.fc_meta.fm_stmt_locs

let term_loc sigma label = List.assoc_opt label sigma.fc_meta.fm_term_locs

let loc_of_f = function
  | FSubsume _ -> None
  | FBlock { sigma; label; idx } -> (
      match stmt_loc sigma label idx with
      | Some l -> Some l
      | None -> term_loc sigma label)
  | FGoto _ -> None
  | FExpr _ -> None
  | FReadLoc { src; _ }
  | FReadTy { src; _ }
  | FWriteLoc { src; _ }
  | FWriteTy { src; _ }
  | FBinop { src; _ }
  | FUnop { src; _ }
  | FCast { src; _ }
  | FIf { src; _ }
  | FSwitchJ { src; _ }
  | FCall { src; _ }
  | FCas { src; _ } ->
      src

let pp_f ppf (j : f) =
  let p fmt = Fmt.pf ppf fmt in
  match j with
  | FSubsume { sub; super; _ } ->
      p "%a <: %a" pp_atom sub pp_atom super
  | FBlock { label; idx; _ } -> p "⊢STMT %s[%d]" label idx
  | FGoto { target; _ } -> p "⊢GOTO %s" target
  | FExpr { expr; _ } -> p "⊢EXPR %s" (Syntax.show_expr expr)
  | FReadLoc { loc_term; _ } -> p "⊢READ-LOC %a" pp_term loc_term
  | FReadTy { loc_term; ty; _ } ->
      p "⊢READ %a : %a" pp_term loc_term pp_rtype ty
  | FWriteLoc { loc_term; v; _ } ->
      p "⊢WRITE-LOC %a := %a" pp_term loc_term pp_term v
  | FWriteTy { loc_term; ty; v; vty; _ } ->
      p "⊢WRITE (%a : %a) := (%a : %a)" pp_term loc_term pp_rtype ty pp_term v
        pp_rtype vty
  | FBinop { op; v1; ty1; v2; ty2; _ } ->
      p "⊢BINOP (%a : %a) %s (%a : %a)" pp_term v1 pp_rtype ty1
        (Syntax.show_binop op) pp_term v2 pp_rtype ty2
  | FUnop { op; v; ty; _ } ->
      p "⊢UNOP %s (%a : %a)" (Syntax.show_unop op) pp_term v pp_rtype ty
  | FCast { from_; to_; v; _ } ->
      p "⊢CAST %a : %a → %a" pp_term v Int_type.pp from_ Int_type.pp to_
  | FIf { v; ty; _ } -> p "⊢IF (%a : %a)" pp_term v pp_rtype ty
  | FSwitchJ { v; ty; _ } -> p "⊢SWITCH (%a : %a)" pp_term v pp_rtype ty
  | FCall { spec; _ } -> p "⊢CALL %s" spec.fs_name
  | FCas { vobj; _ } -> p "⊢CAS %a" pp_term vobj

module L = struct
  type nonrec f = f
  type atom = Rtype.atom

  (* the language environment handed to rules is the session's
     named-type definitions *)
  type env = Rtype.tenv

  let pp_f = pp_f
  let pp_atom = Rtype.pp_atom
  let head_id_of_f = head_id_of_f
  let head_names = head_names
  let memo_key_of_f = memo_key_of_f
  let loc_of_f = loc_of_f
  let related = Rtype.related
  let resolve_atom = Rtype.resolve_atom

  let mk_subsume sub super cont = FSubsume { sub; super; cont }
end

module E = Rc_lithium.Engine.Make (L)
