(** The verification session: one self-contained, immutable checking
    context.

    Everything that used to live in process-global mutable tables — the
    compiled typing-rule index, the solver/lemma registry and its
    simplifier hooks, the goal-simplification rules, the ablation
    switches, the named-type environment, the fault-injection campaign
    and the resource budget — is bundled here, built once per [check]
    invocation and threaded explicitly through driver → typechecker →
    Lithium engine → pure solvers → certificate checker.

    Consequences, by construction rather than by discipline:
    - [-j N] checking is race-free: domains share one session read-only;
    - two sessions with different rule sets, solvers or ablations can
      run concurrently in one process with independent verdicts/stats;
    - a long-lived server can hold many sessions without cross-talk. *)

(** Static-analysis (lint) configuration.  Plain data — pass *names*
    rather than pass closures — so the session layer stays independent
    of the analysis library; names are resolved by the lint registry in
    the driver.  The configuration is part of the session because it is
    part of the verdict surface: [l_werror] changes exit codes, and the
    whole record is fingerprinted into the verification-cache key. *)
type lint_cfg = {
  l_enabled : bool;  (** run the lint pre-pass during [check] *)
  l_passes : string list option;  (** [None] = every registered pass *)
  l_werror : bool;  (** problem diagnostics fail the run *)
}

let default_lint : lint_cfg =
  { l_enabled = true; l_passes = None; l_werror = false }

(** Execution-robustness configuration: how a run is *scheduled*, not
    what it *means*.  Deliberately not fingerprinted into the
    verification-cache key: only [Ok] verdicts are cached, and verdicts
    are monotone in execution generosity (a deadline or retry policy can
    only turn results into [skipped]/[Checker_fault], which are never
    cached), so two runs differing only in [exec] can safely share
    entries. *)
type exec_cfg = {
  x_deadline : float option;
      (** whole-run wall-clock budget (seconds, monotonic clock); hit it
          and remaining functions are reported [skipped] *)
  x_retries : int;  (** re-attempts per function for transient faults *)
  x_pool : Rc_util.Supervisor.t option;
      (** the persistent supervised worker pool; [None] makes the driver
          run sequentially (or spin up a transient pool for [-j N>1]).
          The handle is owned by whoever created the session — the pool
          outlives individual [check] calls, which is the whole point. *)
  x_cancel : (unit -> bool) option;
      (** cooperative cancellation, polled between functions (the CLI
          wires its SIGINT/SIGTERM flag here) *)
}

let default_exec : exec_cfg =
  { x_deadline = None; x_retries = 0; x_pool = None; x_cancel = None }

(** Engine speed configuration ([--memo]): within-run subgoal
    memoization.  Part of the session because it is part of the *proof
    search* configuration — it never changes verdicts (the engine
    revalidates every Γ interaction before accepting a hit), but it does
    change derivation sharing, so the certificate path refuses it (the
    driver disables memoization under [--cert]). *)
type memo_cfg = {
  mm_enabled : bool;
  mm_max : int;  (** per-function memo-table bound *)
}

let default_memo : memo_cfg = { mm_enabled = false; mm_max = 4096 }

(** Incremental-verification configuration: how the driver keys the
    on-disk cache and schedules dirty work.  Like {!exec_cfg} this never
    changes verdicts — cone keying decides what is *re-verified*, and
    the early-cutoff argument (DESIGN.md §12) shows the cone covers
    every input a check reads — but unlike [exec] the choice of key
    *family* is visible in the cache directory, so incremental and
    whole-file entries never alias (the keys carry distinct tags). *)
type inc_cfg = {
  in_enabled : bool;
      (** cone-keyed entries + cost-ordered dirty scheduling (default);
          off = legacy whole-file spec-digest keys in source order *)
  in_explain : bool;
      (** collect per-function dirty reasons even when not printed (the
          driver always records them; this gates the CLI's report) *)
}

let default_inc : inc_cfg = { in_enabled = true; in_explain = false }

(** Proof-failure forensics configuration ([--explain-failure]): when
    enabled, the engine attaches a bounded derivation snapshot — goal
    stack, candidate rules with rejection reasons, evar state, recent
    rule applications — to every failure report.  Like {!exec_cfg} it is
    not fingerprinted into the verification-cache key: only [Ok]
    verdicts are cached, failures (the only reports that carry
    forensics) never are, so two runs differing only in [fx] can share
    entries. *)
type fx_cfg = {
  f_enabled : bool;
  f_limits : Rc_lithium.Report.fx_limits;  (** capture depth/width caps *)
}

let default_fx : fx_cfg =
  { f_enabled = false; f_limits = Rc_lithium.Report.default_fx_limits }

type t = {
  index : Lang.E.index;  (** compiled typing rules (head-indexed) *)
  extra_rules : Lang.E.rule list;
      (** the session rules beyond the standard library (kept so the
          certificate checker can enumerate the declared rule set) *)
  registry : Rc_pure.Registry.t;
      (** named solvers, manual lemmas, simplifier hooks, the
          default-only ablation, and the fault campaign *)
  gs : Rc_lithium.Evar.simp_cfg;  (** goal-simplification configuration *)
  tenv : Rtype.tenv;  (** named-type definitions (rc::refined_by …) *)
  budget : Rc_util.Budget.limits;  (** per-function resource budget *)
  obs : Rc_util.Obs.cfg;
      (** observability switches (tracing / metrics).  The session holds
          only the immutable *configuration*; the mutable trace buffers
          and metric registries are minted per check by the driver, one
          per function, so shared-session [-j N] runs stay race-free. *)
  lint : lint_cfg;  (** pre-verification static analysis configuration *)
  exec : exec_cfg;  (** execution robustness: pool, deadline, retries *)
  memo : memo_cfg;  (** within-run subgoal memoization *)
  inc : inc_cfg;  (** incremental verification: cone keys + scheduling *)
  fx : fx_cfg;  (** proof-failure forensics capture *)
  profile : (string * int) list;
      (** the rule-hit profile the index was compiled with ([--pgo]);
          kept for reporting — the dispatch effect lives in [index] *)
}

(** Build a session.  Omitted components default to the standard
    library / empty environments, so [create ()] is the stock RefinedC
    configuration.  Construction is pure apart from allocating the
    session's own (initially empty) type environment. *)
let create ?(rules = []) ?(registry = Rc_pure.Registry.default)
    ?(gs = Rc_lithium.Evar.default_simp_cfg) ?tenv
    ?(budget = Rc_util.Budget.unlimited) ?(obs = Rc_util.Obs.cfg_off)
    ?(lint = default_lint) ?(exec = default_exec) ?(memo = default_memo)
    ?(inc = default_inc) ?(fx = default_fx) ?(profile = []) () : t =
  {
    index = Rules.make ~extra:rules ~profile ();
    extra_rules = rules;
    registry;
    gs;
    tenv = (match tenv with Some te -> te | None -> Rtype.create_tenv ());
    budget;
    obs;
    lint;
    exec;
    memo;
    inc;
    fx;
    profile;
  }

let fault (s : t) : Rc_util.Faultsim.t option = s.registry.Rc_pure.Registry.fault

(** Replace the fault campaign (campaigns are per-session by design). *)
let with_fault (s : t) f : t =
  { s with registry = Rc_pure.Registry.with_fault s.registry f }

let with_budget (s : t) budget : t = { s with budget }

(** Replace the observability configuration (a CLI convenience, like
    {!with_budget}). *)
let with_obs (s : t) obs : t = { s with obs }

(** Replace the lint configuration (a CLI convenience, like
    {!with_budget}). *)
let with_lint (s : t) lint : t = { s with lint }

(** Replace the execution-robustness configuration (a CLI convenience,
    like {!with_budget}). *)
let with_exec (s : t) exec : t = { s with exec }

(** Replace the memoization configuration (a CLI convenience, like
    {!with_budget}). *)
let with_memo (s : t) memo : t = { s with memo }

(** Replace the incremental-verification configuration (a CLI
    convenience, like {!with_budget}). *)
let with_inc (s : t) inc : t = { s with inc }

(** Replace the forensics configuration (a CLI convenience, like
    {!with_budget}). *)
let with_fx (s : t) fx : t = { s with fx }
