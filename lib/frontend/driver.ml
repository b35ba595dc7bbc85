(** The RefinedC toolchain driver (Figure 2): C source → Caesium +
    specifications → Lithium type checking → per-function results.

    Every function's check runs inside a fault-isolation boundary: an
    exception escaping the checker ([Stack_overflow], a solver bug, an
    injected fault) is converted into a structured per-function
    {!Rc_lithium.Report.t} instead of aborting the file, so the remaining
    functions still verify.  {!faults} distinguishes *the checker broke*
    (crash or budget exhaustion) from {!failures}, *verification found a
    problem* — the CLI maps these to different exit codes.

    Function checks are independent of each other (the frontend fixes
    every spec before checking starts), so the driver can fan
    {!check_fn_isolated} out across a supervised worker pool ([~jobs],
    or a persistent {!Rc_util.Supervisor} carried by the session) and/or
    replay verdicts from a {!Rc_util.Vercache} ([~cache]); both are
    observationally identical to the sequential, uncached run — same
    verdicts, same aggregate statistics, same exit code.

    The dispatch layer adds the robustness contract: a worker crash is
    confined to its task (supervision re-queues and respawns), transient
    faults can be re-attempted ([x_retries]), a whole-run deadline or a
    cooperative cancellation ([x_deadline]/[x_cancel]) stops *starting*
    functions and reports the rest as skipped — a partial report with
    every completed verdict intact, never a lost run. *)

module Syntax = Rc_caesium.Syntax
module Report = Rc_lithium.Report
module Session = Rc_refinedc.Session
module Depgraph = Rc_refinedc.Depgraph
module Obs = Rc_util.Obs
module Supervisor = Rc_util.Supervisor
module Vercache = Rc_util.Vercache

type check_result = {
  name : string;
  outcome : (Rc_refinedc.Lang.E.result, Report.t) result;
  time_s : float;  (** wall-clock seconds spent on this function *)
  cached : bool;  (** verdict replayed from the verification cache *)
  why : string option;
      (** why the cache behaved as it did for this function: ["hit"], a
          {!Rc_util.Vercache.reason_label} miss explanation
          (["new"], ["changed:body+callee:f"], …), or legacy-mode
          ["miss"]/["corrupt"]; [None] without a cache *)
}

(* Where a freshly proved verdict will be stored: under the legacy
   whole-file key, or as a cone-keyed entry with its manifest. *)
type store_plan =
  | No_store
  | Legacy of string
  | Keyed of string * (string * string) list  (* manifest id, components *)

(** How the run ended: normally, stopped by the whole-run deadline, or
    stopped by cooperative cancellation (SIGINT/SIGTERM).  Either early
    stop yields a *partial* report: completed verdicts are kept and the
    unvisited functions are listed in {!field-skipped}. *)
type stop = Completed | Deadline | Interrupted

type t = {
  file : string;
  elaborated : Elab.elaborated;
  graph : Rc_refinedc.Depgraph.t;
      (** the file's function-level dependency graph (always built — it
          is cheap, and embedders use it for impact queries) *)
  schedule : string list;
      (** the dirty functions in the order they were dispatched:
          longest-measured-job first from [costs.prof], topological
          (callees first) for unmeasured ties, source order under
          [~fail_fast] or with incrementality off *)
  results : check_result list;
  skipped : string list;
      (** functions not attempted: under [~fail_fast], after the
          whole-run deadline, or after an interrupt *)
  stop : stop;  (** why checking stopped, if before the end *)
  exec_stats : Supervisor.run_stats;
      (** supervision counters (retries, crashes, respawns, …); all
          zero on a fault-free, deadline-free run *)
  jobs : int;  (** worker count the check actually used *)
  cache_stats : (int * int) option;
      (** (hits, misses) when a verification cache was supplied *)
  obs : Obs.t;
      (** the check's observability root: phase/function/rule spans
          (already merged in source order) and the metrics registry.
          {!Obs.off} when the session's config enables neither. *)
  diagnostics : Rc_util.Diagnostic.t list;
      (** frontend warnings and lint findings, sorted with
          {!Rc_util.Diagnostic.sort} — deterministic across [-j N] *)
  werror : bool;
      (** session's [l_werror]: problem diagnostics fail the run *)
}

exception Frontend_error of string

let parse_and_elab ?(obs = Obs.off) ~(session : Session.t) ~file
    (src : string) : Elab.elaborated =
  let ast =
    Obs.timed obs ~cat:"phase" ~key:"phase.parse"
      ~args:[ ("file", file) ] "phase:parse" (fun () ->
        match Cparser.parse_file ~file src with
        | exception Cparser.Parse_error (msg, loc) ->
            raise
              (Frontend_error
                 (Fmt.str "%a: parse error: %s" Rc_util.Srcloc.pp loc msg))
        | exception Clexer.Lex_error (msg, loc) ->
            raise
              (Frontend_error
                 (Fmt.str "%a: lexical error: %s" Rc_util.Srcloc.pp loc msg))
        | ast -> ast)
  in
  Obs.timed obs ~cat:"phase" ~key:"phase.elab" ~args:[ ("file", file) ]
    "phase:elab" (fun () ->
      let extra_warnings = Warn.check_file ast in
      match Elab.elab_file ~tenv:session.Session.tenv ast with
      | exception Elab.Elab_error (msg, loc) ->
          raise
            (Frontend_error
               (Fmt.str "%a: elaboration error: %s" Rc_util.Srcloc.pp loc msg))
      | exception Specparse.Spec_error msg ->
          raise (Frontend_error ("specification error: " ^ msg))
      | e -> { e with Elab.warnings = extra_warnings @ e.Elab.warnings })

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

(** Run one function's check, converting any escaping exception into a
    structured checker-fault diagnostic — including [Out_of_memory] and
    [Stack_overflow], which abort this function's proof but say nothing
    about its siblings.  [Sys.Break] alone is re-raised: masking Ctrl-C
    would be dishonest (the CLI interrupts cooperatively via the
    session's [x_cancel] instead).  An injected fault is classified
    {!Report.Transient_fault} — re-running the same check may succeed,
    which is exactly what the supervisor's retry policy keys on. *)
let check_fn_isolated ?(obs = Obs.off) ~session ~specs
    (f : Rc_refinedc.Typecheck.fn_to_check) :
    (Rc_refinedc.Lang.E.result, Report.t) result =
  match Rc_refinedc.Typecheck.check_fn ~obs ~session ~specs f with
  | outcome -> outcome
  | exception Report.Error e -> Error e
  | exception Sys.Break -> raise Sys.Break
  | exception Rc_util.Faultsim.Injected site ->
      Error (Report.make (Report.Transient_fault ("injected fault at " ^ site)))
  | exception Out_of_memory ->
      Error (Report.make (Report.Checker_fault "Out_of_memory in checker"))
  | exception Stack_overflow ->
      Error (Report.make (Report.Checker_fault "Stack_overflow in checker"))
  | exception e ->
      Error
        (Report.make
           (Report.Checker_fault ("uncaught exception " ^ Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Verification-cache replay                                           *)
(* ------------------------------------------------------------------ *)

(* Only successful verdicts are cached: failures are rare, re-proving
   them costs little and yields fresh diagnostics, and a failure's
   precise report can depend on budget timing.  The payload is the
   marshalled per-function statistics — exactly what the Figure-7
   aggregation and the JSON output consume — so a replayed run is
   indistinguishable from a re-proved one everywhere except the
   derivation tree, which is replaced by a one-node stub. *)

let cache_payload (stats : Rc_lithium.Stats.t) : string =
  Marshal.to_string stats []

let replay_result (data : string) :
    (Rc_refinedc.Lang.E.result, Report.t) result option =
  match (Marshal.from_string data 0 : Rc_lithium.Stats.t) with
  | stats ->
      Some
        (Ok
           {
             Rc_refinedc.Lang.E.deriv =
               Rc_lithium.Deriv.make ~info:"verdict replayed from cache"
                 "cached" [];
             stats;
           })
  | exception _ -> None

(** Verify every specified function of an already-elaborated file.

    Dispatch goes through {!Rc_util.Supervisor}: the session's
    persistent pool if it carries one ([x_pool] — spawned once per CLI
    invocation or bench session, the fix for the old spawn-per-run
    slowdown), else a transient pool for [~jobs > 1], else the
    sequential engine.  Results come back in source order regardless —
    the workers share the session read-only, so parallelism is
    race-free by construction.  A fault campaign on the session no
    longer forces sequential checking: campaigns are domain-safe, and a
    chaos run *wants* the parallel dispatch path exercised (sequential
    replay determinism still holds at [jobs = 1], where hits draw from
    the seeded stream in hit order).

    [~cache] replays previously-proved verdicts (see the cache-key
    definition in {!Rc_refinedc.Typecheck.cache_key}); the campaign's
    ["cache.read"]/["cache.write"] sites are armed on every cache
    access, and an injection there degrades to a miss or a skipped
    store — never a wrong verdict, never an abort.

    With [~fail_fast] the functions after the first failure are skipped
    (and listed in {!field-skipped}); under [jobs > 1] they may already
    have been checked speculatively, but their results are discarded so
    the output is identical to the sequential run.

    [~obs] is the observability root (lane 0).  Every function check
    writes trace events and metrics into a private child handle (lane =
    1 + source index, so each function is its own track in Perfetto);
    the children of the *kept* results — always a source-order prefix —
    are merged back into the root in source order, which makes trace and
    metrics output deterministic across [-j N] and identical between a
    sequential fail-fast run and a parallel one that checked extra
    functions speculatively. *)
let check_elaborated ?(fail_fast = false) ?(jobs = 1) ?cache ?(obs = Obs.off)
    ~(session : Session.t) ~file (elaborated : Elab.elaborated) : t =
  (* lint pre-pass: a pure analysis of the elaborated unit, before any
     proof search, so its findings arrive even when checking later
     faults out.  It never changes verdicts — only the diagnostics list
     (and, under [l_werror], the exit code). *)
  let lint_diags =
    if session.Session.lint.Session.l_enabled then
      Obs.timed obs ~cat:"phase" ~key:"phase.lint" ~args:[ ("file", file) ]
        "phase:lint" (fun () ->
          Rc_analysis.Lint.run ~obs ~metas:elaborated.Elab.metas ~session
            ~file ~funcs:elaborated.Elab.program.Syntax.funcs
            ~to_check:elaborated.Elab.to_check ())
    else []
  in
  let diagnostics =
    Rc_util.Diagnostic.sort (elaborated.Elab.warnings @ lint_diags)
  in
  let specs =
    List.map
      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
        (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
      elaborated.to_check
  in
  let fn_name (f : Rc_refinedc.Typecheck.fn_to_check) =
    f.spec.Rc_refinedc.Rtype.fs_name
  in
  let jobs = max 1 jobs in
  let campaign = Session.fault session in
  let exec = session.Session.exec in
  let incr_on = session.Session.inc.Session.in_enabled in
  (* the function-level dependency graph: direct spec-level references
     extracted from Caesium bodies + spec/invariant types, with content
     digests per node.  Built unconditionally — it is a cheap syntactic
     pass, it keys the incremental cache, and it orders the cold-run
     schedule (callees first) *)
  let graph = Depgraph.build elaborated.to_check in
  (* absolute whole-run deadline, measured from here; the supervisor
     measures its own from dispatch, a few microseconds later *)
  let deadline_watch = Rc_util.Budget.stopwatch () in
  (* the legacy whole-file key component, used only with incrementality
     off: digests ALL sibling specs, so any spec edit dirties the file *)
  let specs_digest =
    match cache with
    | Some _ when not incr_on ->
        Vercache.fingerprint
          (List.sort compare
             (List.map
                (fun (_, s) -> Rc_refinedc.Rtype.spec_signature s)
                specs))
    | _ -> ""
  in
  let children =
    Array.of_list
      (List.mapi (fun i _ -> Obs.child obs ~tid:(i + 1)) elaborated.to_check)
  in
  if Obs.on obs then begin
    Rc_util.Trace.name_lane (Obs.tr obs) ~tid:0 "pipeline";
    List.iteri
      (fun i f ->
        Rc_util.Trace.name_lane (Obs.tr obs) ~tid:(i + 1)
          ("fn:" ^ fn_name f))
      elaborated.to_check
  end;
  let indexed = List.mapi (fun i f -> (i, f)) elaborated.to_check in
  (* ---- probe the verification cache up-front (the dirty cone) ----
     Probing is a cheap sequential pass over digests: hits replay
     immediately, misses become the dirty set handed to the scheduler.
     Incremental mode keys each function on its dependency cone
     ({!Depgraph.components}) with a manifest-diff miss explanation;
     legacy mode keeps the whole-file spec-digest key. *)
  let probe ((idx, f) : int * Rc_refinedc.Typecheck.fn_to_check) :
      check_result option * (string option * store_plan) =
    let co = children.(idx) in
    let name = fn_name f in
    let watch = Rc_util.Budget.stopwatch () in
    let cache_event kind =
      if Obs.on co then begin
        Obs.counter co ("cache." ^ kind);
        Obs.instant co ~cat:"cache" ~args:[ ("fn", name) ] ("cache:" ^ kind)
      end
    in
    let hit data why =
      (* a readable entry whose payload this build cannot unmarshal
         (e.g. written by a different compiler) degrades to a
         corrupt-entry skip: re-prove and overwrite *)
      Option.map
        (fun outcome ->
          cache_event "hit";
          if Obs.on co then begin
            Obs.span_begin co ~cat:"check" ~args:[ ("fn", name) ]
              ("fn:" ^ name);
            Obs.instant co ~cat:"check"
              ~args:[ ("status", "verified") ]
              "verdict";
            Obs.span_end co ~cat:"check" ("fn:" ^ name);
            Obs.observe_ns co ("fn.ns." ^ name)
              (Int64.of_float (watch () *. 1e9))
          end;
          { name; outcome; time_s = watch (); cached = true; why = Some why })
        (replay_result data)
    in
    match cache with
    | None -> (None, (None, No_store))
    | Some vc ->
        if incr_on then begin
          let id = Depgraph.cache_id ~file name in
          let components = Depgraph.components ~session graph f in
          match Vercache.find_keyed ?fault:campaign vc ~id ~components with
          | Vercache.KHit data -> (
              match hit data "hit" with
              | Some r -> (Some r, (None, No_store))
              | None ->
                  cache_event "corrupt";
                  (None, (Some "corrupt", Keyed (id, components))))
          | Vercache.KMiss reason ->
              cache_event
                (match reason with
                | Vercache.Collision -> "corrupt"
                | Vercache.Fresh | Vercache.Changed _ | Vercache.Evicted ->
                    "miss");
              ( None,
                ( Some (Vercache.reason_label reason),
                  Keyed (id, components) ) )
        end
        else begin
          let key = Rc_refinedc.Typecheck.cache_key ~session ~specs_digest f in
          match Vercache.find_detailed ?fault:campaign vc ~key with
          | Vercache.Hit data -> (
              match hit data "hit" with
              | Some r -> (Some r, (None, No_store))
              | None ->
                  cache_event "corrupt";
                  (None, (Some "corrupt", Legacy key)))
          | Vercache.Absent ->
              cache_event "miss";
              (None, (Some "miss", Legacy key))
          | Vercache.Corrupt ->
              cache_event "corrupt";
              (None, (Some "corrupt", Legacy key))
        end
  in
  let hits_rev, dirty_rev =
    List.fold_left
      (fun (hs, ds) (i, f) ->
        match probe (i, f) with
        | Some r, _ -> ((i, r) :: hs, ds)
        | None, (why, plan) -> (hs, (i, f, why, plan) :: ds))
      ([], []) indexed
  in
  let hits = List.rev hits_rev in
  (* ---- schedule the dirty set ----
     Longest measured job first (per-function wall-clock samples kept in
     [costs.prof] next to the cache — Profstore format, last sample
     wins), unmeasured ties in topological order (callees first, so a
     cold run proves leaves while callers wait on workers).  [~fail_fast]
     keeps source order: its contract is "nothing after the first
     failure", which only means anything in a fixed order. *)
  let costs_store =
    match cache with
    | Some vc when incr_on && not (Vercache.disabled vc) ->
        Some (Rc_util.Profstore.create ~file:"costs.prof" vc.Vercache.dir)
    | _ -> None
  in
  let dirty =
    let dirty = List.rev dirty_rev in
    if fail_fast || not incr_on then dirty
    else begin
      let topo_pos = Hashtbl.create 16 in
      List.iteri
        (fun i n -> Hashtbl.replace topo_pos n i)
        (Depgraph.topo_order graph);
      let cost_tbl = Hashtbl.create 16 in
      (match costs_store with
      | Some st ->
          List.iter
            (fun (k, v) -> Hashtbl.replace cost_tbl k v)
            (Rc_util.Profstore.load st)
      | None -> ());
      let cost n =
        Option.value ~default:0 (Hashtbl.find_opt cost_tbl (file ^ ":" ^ n))
      in
      let pos n =
        Option.value ~default:max_int (Hashtbl.find_opt topo_pos n)
      in
      List.stable_sort
        (fun (_, f1, _, _) (_, f2, _, _) ->
          let n1 = fn_name f1 and n2 = fn_name f2 in
          match Int.compare (cost n2) (cost n1) with
          | 0 -> Int.compare (pos n1) (pos n2)
          | c -> c)
        dirty
    end
  in
  let schedule = List.map (fun (_, f, _, _) -> fn_name f) dirty in
  let check_one
      ((idx, f, why, plan) :
        int * Rc_refinedc.Typecheck.fn_to_check * string option * store_plan)
      : check_result =
    let co = children.(idx) in
    let watch = Rc_util.Budget.stopwatch () in
    let name = fn_name f in
    if Obs.on co then begin
      Obs.counter co "pool.tasks";
      Obs.instant co ~cat:"sched"
        ~args:
          [ ("fn", name);
            ("domain", string_of_int (Rc_util.Supervisor.worker_id ())) ]
        "task:begin";
      Obs.span_begin co ~cat:"check" ~args:[ ("fn", name) ] ("fn:" ^ name)
    end;
    (* cap this function's budget timeout by the time left on the
       whole-run deadline, so an in-flight check cannot overshoot the
       run by more than the cap.  The cache key was computed from the
       *original* session (at probe time): only [Ok] verdicts are cached
       and verdicts are budget-monotone, so the capped session can only
       turn would-be verdicts into (uncached) exhaustions. *)
    let session =
      match exec.Session.x_deadline with
      | None -> session
      | Some d ->
          let remaining = Float.max 0.01 (d -. deadline_watch ()) in
          let b = session.Session.budget in
          let timeout =
            match b.Rc_util.Budget.timeout with
            | Some t -> Some (Float.min t remaining)
            | None -> Some remaining
          in
          Session.with_budget session { b with Rc_util.Budget.timeout }
    in
    let outcome = check_fn_isolated ~obs:co ~session ~specs f in
    (match (cache, plan, outcome) with
    | Some vc, Legacy key, Ok res ->
        Vercache.store ?fault:campaign vc ~key
          (cache_payload res.Rc_refinedc.Lang.E.stats)
    | Some vc, Keyed (id, components), Ok res ->
        Vercache.store_keyed ?fault:campaign vc ~id ~components
          (cache_payload res.Rc_refinedc.Lang.E.stats)
    | _ -> ());
    let r = { name; outcome; time_s = watch (); cached = false; why } in
    if Obs.on co then begin
      Obs.instant co ~cat:"check"
        ~args:
          [ ( "status",
              match r.outcome with
              | Ok _ -> "verified"
              | Error e -> if Report.is_fault e then "fault" else "failed" )
          ]
        "verdict";
      Obs.span_end co ~cat:"check" ("fn:" ^ name);
      Obs.observe_ns co ("fn.ns." ^ name) (Int64.of_float (r.time_s *. 1e9));
      Obs.instant co ~cat:"sched"
        ~args:
          [ ("fn", name);
            ("domain", string_of_int (Rc_util.Supervisor.worker_id ())) ]
        "task:end"
    end;
    r
  in
  (* ---- dispatch through the supervisor ---- *)
  let cancel =
    match exec.Session.x_cancel with Some c -> c | None -> fun () -> false
  in
  let retries = max 0 exec.Session.x_retries in
  let should_retry (r : check_result) =
    match r.outcome with Error e -> Report.is_transient e | Ok _ -> false
  in
  let is_transient_exn = function
    | Rc_util.Faultsim.Injected _ -> true
    | _ -> false
  in
  let pool, transient =
    match exec.Session.x_pool with
    | Some p -> (Some p, false)
    | None ->
        (* clamp to what the hardware can actually run concurrently:
           workers beyond the core count only add scheduling and GC-sync
           overhead (on a single-core host, [-j 4] used to run ~3x
           *slower* than [-j 1]).  A session-supplied pool is exempt —
           its owner sized it deliberately. *)
        let jobs = min jobs (Supervisor.recommended_jobs ()) in
        if jobs > 1 && Supervisor.parallelism_available then
          (* no session pool: spin up a per-call one (the historical
             behaviour; callers that care about spawn cost carry a
             persistent pool in the session instead) *)
          (Some (Supervisor.create ~jobs ()), true)
        else (None, false)
  in
  let jobs = match pool with Some p -> Supervisor.jobs p | None -> 1 in
  (* sequential fail-fast preserves the historical early exit — nothing
     after the first failure is even attempted — by feeding the failure
     flag to the supervisor's cancel poll; the stop is re-classified as
     an ordinary fail-fast skip below.  Parallel fail-fast keeps the
     historical speculative-check-then-truncate semantics. *)
  let ff_hit = ref false in
  let check_one_seq task =
    let r = check_one task in
    if fail_fast && Result.is_error r.outcome then ff_hit := true;
    r
  in
  let outcomes, rstats =
    match pool with
    | Some p ->
        let r =
          Supervisor.run p ?deadline:exec.Session.x_deadline ~cancel ~retries
            ~should_retry ~is_transient:is_transient_exn ?fault:campaign
            check_one dirty
        in
        if transient then Supervisor.shutdown p;
        r
    | None ->
        Supervisor.run_seq ?deadline:exec.Session.x_deadline
          ~cancel:(fun () -> cancel () || !ff_hit)
          ~retries ~should_retry ~is_transient:is_transient_exn check_one_seq
          dirty
  in
  (* ---- assemble results, faults and skips in source order ----
     Cache hits and dirty verdicts merge by source index: the output
     order never depends on the dispatch schedule. *)
  let kept_rev, not_run_rev =
    List.fold_left2
      (fun (ks, ns) (i, f, why, _plan) outcome ->
        match outcome with
        | Supervisor.Done r -> ((i, r) :: ks, ns)
        | Supervisor.Fault fl ->
            (* the task (or its worker) died [fl.f_attempts] times; the
               verdict slot survives as a structured checker fault *)
            let r =
              {
                name = fn_name f;
                outcome =
                  Error
                    (Report.make
                       (Report.Checker_fault
                          (Fmt.str "worker fault after %d attempt(s): %s"
                             fl.Supervisor.f_attempts fl.Supervisor.f_exn)));
                time_s = 0.;
                cached = false;
                why;
              }
            in
            ((i, r) :: ks, ns)
        | Supervisor.Not_run _ -> (ks, (i, fn_name f) :: ns))
      ([], []) dirty outcomes
  in
  let kept =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (hits @ List.rev kept_rev)
  in
  (* feed this run's wall-clock samples back into the cost model (the
     *measured* checks only); a degraded store drops them silently *)
  (match costs_store with
  | Some st ->
      Rc_util.Profstore.accumulate
        ~merge:(fun _ fresh -> fresh)
        st
        (List.filter_map
           (fun (_, r) ->
             if r.cached || r.time_s <= 0. then None
             else
               Some (file ^ ":" ^ r.name, max 1 (int_of_float (r.time_s *. 1e6))))
           kept)
  | None -> ());
  let kept, cut =
    if not fail_fast then (kept, [])
    else
      (* truncate after the first failure, exactly as sequential
         fail-fast would have *)
      let rec go acc = function
        | [] -> (List.rev acc, [])
        | (i, r) :: rest ->
            if Result.is_error r.outcome then
              (List.rev ((i, r) :: acc), List.map (fun (i, r) -> (i, r.name)) rest)
            else go ((i, r) :: acc) rest
      in
      go [] kept
  in
  let results = List.map snd kept in
  let skipped =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         (cut @ List.rev not_run_rev))
  in
  let interrupted = cancel () in
  let stop =
    match rstats.Supervisor.rs_stop with
    | Some Supervisor.Deadline -> Deadline
    | Some Supervisor.Cancelled ->
        (* distinguish a real interrupt from the fail-fast early exit
           routed through the same cancel poll *)
        if interrupted then Interrupted else Completed
    | None -> if interrupted then Interrupted else Completed
  in
  let exec_stats =
    if stop = Completed && rstats.Supervisor.rs_stop <> None then
      (* the early stop was fail-fast: an ordinary skip, not a
         supervision event — keep the fault-free report all-zeros *)
      { rstats with Supervisor.rs_stop = None; rs_not_run = 0 }
    else rstats
  in
  let diagnostics =
    if exec_stats.Supervisor.rs_degraded then
      (* a Note, deliberately not a problem: degradation must never
         change an exit code (even under --lint-werror), only explain
         where the wall-clock went *)
      Rc_util.Diagnostic.sort
        (Rc_util.Diagnostic.make ~severity:Rc_util.Diagnostic.Note
           ~code:"RC-X001"
           ~loc:
             (Rc_util.Srcloc.make ~file ~start_line:1 ~start_col:0
                ~end_line:1 ~end_col:0)
           "worker pool degraded to sequential execution (respawn \
            allowance exhausted); verdicts are unaffected"
        :: diagnostics)
    else diagnostics
  in
  (* merge the kept results' observability by source index — skips and
     fail-fast discards contribute nothing, exactly as in a sequential
     run that never reached them *)
  if Obs.on obs then List.iter (fun (i, _) -> Obs.absorb obs children.(i)) kept;
  let cache_stats =
    match cache with
    | None -> None
    | Some _ ->
        let hits = List.length (List.filter (fun r -> r.cached) results) in
        Some (hits, List.length results - hits)
  in
  {
    file;
    elaborated;
    graph;
    schedule;
    results;
    skipped;
    stop;
    exec_stats;
    jobs;
    cache_stats;
    obs;
    diagnostics;
    werror = session.Session.lint.Session.l_werror;
  }

(** Lint (only) an already-elaborated file: frontend warnings plus every
    registered pass, regardless of the session's [l_enabled] /
    [l_passes] pre-pass selection — the [refinedc lint] verb's engine.
    Pass [~passes] to restrict to named passes
    (raises {!Rc_analysis.Lint.Unknown_pass} on a bad name). *)
let lint_elaborated ?(obs = Obs.off) ?passes ~(session : Session.t) ~file
    (elaborated : Elab.elaborated) : Rc_util.Diagnostic.t list =
  let session =
    Session.with_lint session
      { Session.l_enabled = true; l_passes = passes; l_werror = false }
  in
  let lint_diags =
    Obs.timed obs ~cat:"phase" ~key:"phase.lint" ~args:[ ("file", file) ]
      "phase:lint" (fun () ->
        Rc_analysis.Lint.run ~obs ~metas:elaborated.Elab.metas ~session
          ~file ~funcs:elaborated.Elab.program.Syntax.funcs
          ~to_check:elaborated.Elab.to_check ())
  in
  Rc_util.Diagnostic.sort (elaborated.Elab.warnings @ lint_diags)

(** Resolve the session for one check invocation: the caller's session,
    optionally with a one-shot budget override (a CLI convenience — the
    flags set a budget without the caller building a session by hand). *)
let resolve_session ?session ?budget () : Session.t =
  let s = match session with Some s -> s | None -> Session.create () in
  match budget with Some b -> Session.with_budget s b | None -> s

(** Verify every specified function of a source string.  The session's
    observability configuration (see {!Session.with_obs}) decides
    whether a trace/metrics root is minted for this check; the root
    rides on the returned {!field-obs}. *)
let check_source ?session ?budget ?fail_fast ?jobs ?cache ~file
    (src : string) : t =
  let session = resolve_session ?session ?budget () in
  let obs = Obs.create ~tid:0 session.Session.obs in
  let elaborated = parse_and_elab ~obs ~session ~file src in
  Obs.timed obs ~cat:"phase" ~key:"phase.check" ~args:[ ("file", file) ]
    "phase:check" (fun () ->
      check_elaborated ?fail_fast ?jobs ?cache ~obs ~session ~file elaborated)

let check_file ?session ?budget ?fail_fast ?jobs ?cache (path : string) : t =
  let session = resolve_session ?session ?budget () in
  (* the file-I/O boundary: both a real read failure and an injected
     ["io.read"] fault become a structured frontend error — the one
     failure that is necessarily file-fatal, but still a clean report
     rather than an escaped exception *)
  let src =
    match
      Rc_util.Faultsim.point (Session.fault session) "io.read";
      In_channel.with_open_bin path In_channel.input_all
    with
    | src -> src
    | exception Rc_util.Faultsim.Injected _ ->
        raise (Frontend_error (Fmt.str "injected I/O fault reading %s" path))
    | exception Sys_error msg ->
        raise (Frontend_error ("cannot read " ^ path ^ ": " ^ msg))
  in
  check_source ~session ?fail_fast ?jobs ?cache ~file:path src

(* ------------------------------------------------------------------ *)
(* Outcome queries                                                     *)
(* ------------------------------------------------------------------ *)

let all_ok (t : t) =
  t.skipped = [] && List.for_all (fun r -> Result.is_ok r.outcome) t.results

let errors (t : t) =
  List.filter_map
    (fun r ->
      match r.outcome with Ok _ -> None | Error e -> Some (r.name, e))
    t.results

(** Verification failures: the program (or its spec) could not be
    verified.  The complement of {!faults} within {!errors}. *)
let failures (t : t) =
  List.filter (fun (_, e) -> not (Report.is_fault e)) (errors t)

(** Checker faults: the *checker* crashed or ran out of budget on these
    functions; nothing was established about the program. *)
let faults (t : t) =
  List.filter (fun (_, e) -> Report.is_fault e) (errors t)

(** The CLI exit-code contract: 0 = all functions verified,
    1 = at least one verification failure (or, under [--lint-werror], a
    problem diagnostic), 2 = at least one checker fault or budget
    exhaustion — including the whole-run [--deadline], which is budget
    exhaustion at the run level — and 130 = interrupted (the
    conventional 128+SIGINT), whatever the partial report holds. *)
let exit_code (t : t) =
  if t.stop = Interrupted then 130
  else if faults t <> [] then 2
  else if t.stop = Deadline then 2
  else if not (all_ok t) then 1
  else if t.werror && List.exists Rc_util.Diagnostic.is_problem t.diagnostics
  then 1
  else 0

(** Aggregate statistics over all verified functions (Figure 7 inputs). *)
let stats (t : t) : Rc_lithium.Stats.t =
  let acc = Rc_lithium.Stats.create () in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok { Rc_refinedc.Lang.E.stats; _ } -> Rc_lithium.Stats.merge acc stats
      | Error _ -> ())
    t.results;
  acc

(* ------------------------------------------------------------------ *)
(* JSON diagnostics (--json)                                           *)
(* ------------------------------------------------------------------ *)

let result_to_json ?(timings = true) (r : check_result) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let base =
    [
      ("name", Str r.name);
      ("time_s", Float (if timings then r.time_s else 0.));
      ("cached", Bool r.cached);
      (* why the cache behaved as it did ("hit", "new", "changed:body",
         "changed:spec+callee:f", …); deterministic given the cache
         directory's state, so -j1/-j4 byte-identity is preserved *)
      ("cache_why", match r.why with None -> Null | Some w -> Str w);
    ]
  in
  match r.outcome with
  | Ok res ->
      let s = res.Rc_refinedc.Lang.E.stats in
      Obj
        (base
        @ [
            ("status", Str "verified");
            ( "stats",
              Obj
                [
                  ("rule_apps", Int s.Rc_lithium.Stats.rule_apps);
                  ("evar_insts", Int s.Rc_lithium.Stats.evar_insts);
                  ("side_auto", Int s.Rc_lithium.Stats.side_auto);
                  ("side_manual", Int s.Rc_lithium.Stats.side_manual);
                ] );
          ])
  | Error e ->
      Obj
        (base
        @ [
            ("status", Str (if Report.is_fault e then "fault" else "failed"));
            ("diagnostic", Report.to_json e);
          ])

(** The report is a pure function of the session configuration and the
    source: run-environment inputs (the [-j N] worker count) are not
    echoed, and [~timings:false] zeroes the wall-clock fields — the only
    nondeterministic part — so [-j 1] and [-j 4] runs serialize to
    byte-identical JSON. *)
let to_json ?(timings = true) (t : t) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  Obj
    [
      ("file", Str t.file);
      ("ok", Bool (all_ok t));
      ("exit_code", Int (exit_code t));
      ( "cache",
        match t.cache_stats with
        | None -> Null
        | Some (hits, misses) ->
            Obj
              [
                ("hits", Int hits);
                ("misses", Int misses);
                ( "hit_rate",
                  Float
                    (if hits + misses = 0 then 0.
                     else float_of_int hits /. float_of_int (hits + misses))
                );
              ] );
      ("functions", List (List.map (result_to_json ~timings) t.results));
      ("skipped", List (List.map (fun s -> Str s) t.skipped));
      ( "stop",
        Str
          (match t.stop with
          | Completed -> "completed"
          | Deadline -> "deadline"
          | Interrupted -> "interrupted") );
      ("interrupted", Bool (t.stop = Interrupted));
      (* supervision counters: all zero on a fault-free, deadline-free
         run, which keeps -j1/-j4 reports byte-identical *)
      ( "exec",
        let e = t.exec_stats in
        Obj
          [
            ("retries", Int e.Supervisor.rs_retries);
            ("task_faults", Int e.Supervisor.rs_task_faults);
            ("worker_crashes", Int e.Supervisor.rs_crashes);
            ("respawns", Int e.Supervisor.rs_respawns);
            ("not_run", Int e.Supervisor.rs_not_run);
            ("degraded", Bool e.Supervisor.rs_degraded);
          ] );
      ( "diagnostics",
        List (List.map Rc_util.Diagnostic.to_json t.diagnostics) );
      ( "coverage",
        let specified, total =
          Rc_analysis.Lint.coverage
            ~funcs:t.elaborated.Elab.program.Syntax.funcs
            ~to_check:t.elaborated.Elab.to_check
        in
        Obj [ ("specified", Int specified); ("total", Int total) ] );
      (* Null unless the session enabled metrics; with [~timings:false]
         only observation counts survive, which are deterministic *)
      ("metrics", Rc_util.Metrics.to_json ~timings (Obs.mx t.obs));
    ]

(* ------------------------------------------------------------------ *)
(* Run-ledger records (--runlog)                                        *)
(* ------------------------------------------------------------------ *)

(** One {!Rc_util.Runlog} record for this check run.  Unlike
    {!to_json}, ledger records carry wall-clock data by design — they
    exist to track throughput across runs — but they are out-of-band:
    written to the ledger file beside the cache, never to stdout, so the
    [-j 1] ≡ [-j 4] byte-identity of the [--json] report is untouched.
    Per-function percentiles are precomputed at write time so
    [refinedc stats] never needs the raw function list. *)
let runlog_record ~(session : Session.t) ~(wall_s : float) (t : t) :
    Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let s = stats t in
  let rule_apps = s.Rc_lithium.Stats.rule_apps in
  let verified, failed, faults_n =
    List.fold_left
      (fun (v, f, x) r ->
        match r.outcome with
        | Ok _ -> (v + 1, f, x)
        | Error e -> if Report.is_fault e then (v, f, x + 1) else (v, f + 1, x))
      (0, 0, 0) t.results
  in
  let fn_walls =
    List.filter_map
      (fun r -> if r.cached then None else Some r.time_s)
      t.results
  in
  let pct p =
    match Rc_util.Runlog.percentile p fn_walls with
    | Some v -> Float v
    | None -> Null
  in
  let why_histogram =
    (* "changed:body+callee:f" buckets by its head ("changed:body") so
       the histogram stays low-cardinality across runs *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        match r.why with
        | None -> ()
        | Some w ->
            let key =
              match String.index_opt w '+' with
              | Some i -> String.sub w 0 i
              | None -> w
            in
            Hashtbl.replace tbl key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
      t.results;
    Hashtbl.fold (fun k v acc -> (k, Int v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let m = Obs.mx t.obs in
  let metrics_fields =
    if not (Rc_util.Metrics.on m) then []
    else
      [
        ( "memo",
          Obj
            [
              ("hits", Int (Rc_util.Metrics.counter m "memo.hit"));
              ("misses", Int (Rc_util.Metrics.counter m "memo.miss"));
              ("stores", Int (Rc_util.Metrics.counter m "memo.store"));
            ] );
        ( "solvers",
          List
            (Rc_util.Metrics.timers_with_prefix m ~prefix:"solver.ns."
            |> List.map (fun (name, count, total_ns) ->
                   Obj
                     [
                       ("name", Str name);
                       ("calls", Int count);
                       ("total_ns", Float (Int64.to_float total_ns));
                     ])) );
        (* per-pass lint wall-clock (the [lint.<pass>] spans) — lets
           [refinedc stats] trend analysis cost alongside proof cost *)
        ( "lint",
          List
            (Rc_util.Metrics.timers_with_prefix m ~prefix:"lint."
            |> List.filter (fun (name, _, _) ->
                   not
                     (String.length name >= 6
                     && String.sub name 0 6 = "diags."))
            |> List.map (fun (name, count, total_ns) ->
                   Obj
                     [
                       ("pass", Str name);
                       ("runs", Int count);
                       ("total_ns", Float (Int64.to_float total_ns));
                     ])) );
      ]
  in
  let e = t.exec_stats in
  Obj
    ([
       ("schema", Str Rc_util.Runlog.schema_version);
       ("kind", Str "check");
       ("file", Str t.file);
       ( "fingerprint",
         Str (Rc_refinedc.Typecheck.toolchain_fingerprint session) );
       ("ocaml", Str Sys.ocaml_version);
       ("jobs", Int t.jobs);
       ("wall_s", Float wall_s);
       ("rule_apps", Int rule_apps);
       ( "apps_per_sec",
         if wall_s > 0. then Float (float_of_int rule_apps /. wall_s)
         else Null );
       ( "verdicts",
         Obj
           [
             ("verified", Int verified);
             ("failed", Int failed);
             ("faults", Int faults_n);
             ("skipped", Int (List.length t.skipped));
           ] );
       ( "cache",
         match t.cache_stats with
         | None -> Null
         | Some (hits, misses) ->
             Obj
               [
                 ("hits", Int hits);
                 ("misses", Int misses);
                 ( "hit_rate",
                   Float
                     (if hits + misses = 0 then 0.
                      else float_of_int hits /. float_of_int (hits + misses))
                 );
               ] );
       ("cache_why", Obj why_histogram);
       ( "fn_wall",
         Obj
           [
             ("checked", Int (List.length fn_walls));
             ("p50_s", pct 0.5);
             ("p95_s", pct 0.95);
           ] );
       ( "exec",
         Obj
           [
             ("retries", Int e.Supervisor.rs_retries);
             ("task_faults", Int e.Supervisor.rs_task_faults);
             ("worker_crashes", Int e.Supervisor.rs_crashes);
             ("respawns", Int e.Supervisor.rs_respawns);
             ("not_run", Int e.Supervisor.rs_not_run);
             ("degraded", Bool e.Supervisor.rs_degraded);
           ] );
       ( "stop",
         Str
           (match t.stop with
           | Completed -> "completed"
           | Deadline -> "deadline"
           | Interrupted -> "interrupted") );
     ]
    @ metrics_fields)

(** Run a function of the elaborated program in the Caesium interpreter
    (used by examples and the semantic-soundness harness). *)
let run (t : t) (fname : string) (args : Rc_caesium.Value.t list) =
  Rc_caesium.Eval.run_fn t.elaborated.Elab.program fname args
