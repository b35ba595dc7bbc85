(* The repository benchmark.  Four workloads drive the public entry
   points (Refinedc_api, Driver, Checker, Semtest), every verdict is
   compared with an answer known by construction, and the last line of
   standard output is one JSON result.  README.md in this directory
   describes the workloads, the metrics and how to run it.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Timing design.  The host's speed drifts by 10-20% over seconds to
   minutes, so no timing is taken over a whole run.  A run repeats
   rounds; each round repeats the set-up and then visits every job of the
   workload once, in a seeded shuffled order.  Every job and set-up is
   timed from a fully collected heap and calibrated: its wall time is
   divided by the time of a fixed calibration unit (pure OCaml, no code of
   this repository) run just before and after it, and multiplied by the
   unit's nominal 1 ms.  A job's time is the median over its rounds, and a
   pass is the sum of the job medians. *)

module Api = Rc_session.Refinedc_api
module Driver = Rc_frontend.Driver
module Elab = Rc_frontend.Elab
module Session = Rc_refinedc.Session
module Typecheck = Rc_refinedc.Typecheck
module Depgraph = Rc_refinedc.Depgraph
module Stats = Rc_lithium.Stats
module Report = Rc_lithium.Report
module Vercache = Rc_util.Vercache
module Obs = Rc_util.Obs
module Metrics = Rc_util.Metrics
module Trace = Rc_util.Trace
module Checker = Rc_cert.Checker
module Semtest = Rc_sem.Semtest
module Eval = Rc_caesium.Eval

(* ------------------------------------------------------------------ *)
(* Statistics and measurement                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

let shuffle rng a =
  let a = Array.copy a in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done;
  a
let now () = Int64.to_float (Trace.now_ns ()) /. 1e9

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()] with its wall seconds and allocated words. *)
let measure f =
  let w0 = allocated_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, allocated_words () -. w0)

module SMap = Map.Make (String)

(* The calibration unit: allocation, string keys and a small balanced
   map, the mix of the verifier's own code.  Of the loops tried (this one,
   pointer chasing through 8 MB outside the heap, lookups in a 5 MB map),
   this one tracked the host's speed phases best on the checking jobs. *)
let cal_work () =
  let m = ref SMap.empty in
  for i = 0 to 999 do
    m := SMap.add (string_of_int (i * 7919 mod 2003)) i !m
  done;
  let acc = ref 0 in
  for i = 0 to 999 do
    acc := !acc + Option.value ~default:0 (SMap.find_opt (string_of_int i) !m)
  done;
  let l = List.init 2000 (fun i -> i * i) in
  acc := !acc + List.fold_left ( + ) 0 (List.rev_map (fun x -> x land 255) l);
  ignore (Sys.opaque_identity !acc)

let cal_nominal = 1e-3

(* the last calibration sample, which brackets the next timed call *)
let cal_prev = ref None

(* the faster of two units, so that one preempted unit does not count *)
let cal_sample () =
  let _, a, _ = measure cal_work in
  let _, b, _ = measure cal_work in
  Float.min a b

(* [f ()], its wall seconds and words, and its calibrated seconds *)
let calibrated f =
  let before = match !cal_prev with Some c -> c | None -> cal_sample () in
  Gc.full_major ();
  let r, dt, words = measure f in
  let after = cal_sample () in
  cal_prev := Some after;
  (r, dt, words, dt *. cal_nominal /. ((before +. after) /. 2.))

(* ------------------------------------------------------------------ *)
(* The traced run's attribution context                                *)
(* ------------------------------------------------------------------ *)

(* One job execution in the traced run.  [call] times one public call
   into a layer, records it as a Chrome-trace span under its parent
   pass, and adds its seconds to [times] and its allocated words to
   [counts].  Calls marked [~pass] are the job's own pipeline; their sum
   is the traced pass time.  The other calls re-run a layer on its own to
   attribute time inside [Driver.check_elaborated], and are not part of
   the pass. *)
type ctx = {
  tr : Trace.t;
  times : (string, float) Hashtbl.t;  (** seconds, calibrated afterwards *)
  counts : (string, float) Hashtbl.t;
}

let new_ctx tr = { tr; times = Hashtbl.create 32; counts = Hashtbl.create 32 }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let add_time cx = bump cx.times
let count cx = bump cx.counts
let time_of cx key = Option.value ~default:0. (Hashtbl.find_opt cx.times key)

(* Record a span that began at [t0] and ends now.  Both ends are cut to
   whole microseconds: the trace writer prints a whole number exactly but
   other numbers to six digits, which would blur timestamps to 0.1 s. *)
let span tr ?(args = []) ~cat name t0 =
  let us ns = Int64.mul (Int64.div ns 1000L) 1000L in
  let start_ns = us t0 in
  Trace.complete tr ~args ~cat ~start_ns
    ~dur_ns:(Int64.sub (us (Trace.now_ns ())) start_ns)
    name

let call cx ?(pass = false) ~parent layer f =
  let t0 = Trace.now_ns () in
  let r, dt, words = measure f in
  span cx.tr ~cat:parent ~args:[ ("parent", parent) ] layer t0;
  add_time cx layer dt;
  count cx (layer ^ ".words") words;
  if pass then add_time cx "pass" dt;
  r

(* ------------------------------------------------------------------ *)
(* Known answers                                                       *)
(* ------------------------------------------------------------------ *)

(* The Figure-7 counters of EXPERIMENTS.md §1 per case study: distinct
   rules, rule applications, evars instantiated, side conditions
   auto/manual.  free_list.c and mem_alloc.c have no Figure-7 row. *)
let fig7_counters =
  [
    ("linked_list.c", (30, 388, 21, 31, 0));
    ("queue.c", (23, 187, 12, 13, 0));
    ("binary_search.c", (21, 248, 16, 26, 0));
    ("talloc.c", (24, 178, 9, 5, 0));
    ("page_alloc.c", (18, 96, 1, 7, 0));
    ("bst_layered.c", (18, 112, 4, 1, 5));
    ("bst_direct.c", (23, 294, 22, 8, 18));
    ("hashmap.c", (18, 389, 12, 58, 24));
    ("mpool.c", (24, 283, 14, 2, 0));
    ("spinlock.c", (23, 106, 10, 0, 0));
    ("barrier.c", (18, 43, 4, 0, 0));
  ]

(* Specified functions per case study; every one of them verifies. *)
let fig7_functions =
  [
    ("barrier.c", 2); ("binary_search.c", 3); ("bst_direct.c", 2);
    ("bst_layered.c", 1); ("free_list.c", 1); ("hashmap.c", 3);
    ("linked_list.c", 5); ("mem_alloc.c", 2); ("mpool.c", 2);
    ("page_alloc.c", 2); ("queue.c", 3); ("spinlock.c", 3); ("talloc.c", 1);
  ]

(* The Figure-7 functions whose semantic test campaigns reach the
   interpreter's step fuel within their first [semtest_runs] runs. *)
let fuel_bound =
  [
    ("hashmap.c", "hm_insert"); ("hashmap.c", "hm_find");
    ("hashmap.c", "hm_delete"); ("spinlock.c", "locked_reset");
    ("talloc.c", "tsalloc_alloc"); ("barrier.c", "barrier_wait");
  ]

type expect = {
  e_fns : int;  (** specified functions in the file *)
  e_fail : string option;
      (** the one function that must fail, on a signed-overflow side
          condition *)
  e_counters : (int * int * int * int * int) option;
  e_dirty : string list option;
      (** with a cache: exactly these functions are re-proved *)
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Does a check result match its known answer?  A mismatch, a checker
   fault, budget exhaustion, a skipped function or a certificate issue
   all make it a failed operation. *)
let answer_ok ~file (e : expect) (t : Driver.t) (certs : Checker.report list)
    =
  let verdict (r : Driver.check_result) =
    match (r.outcome, e.e_fail) with
    | Ok _, Some f -> r.name <> f
    | Ok _, None -> true
    | Error err, Some f ->
        r.name = f
        && (match err.Report.kind with
           | Report.Unsolved_side_condition _ -> true
           | _ -> false)
        && contains (Report.to_string err) "2147483647"
    | Error _, None -> false
  in
  let counters () =
    match e.e_counters with
    | None -> true
    | Some (d, a, ev, au, ma) ->
        let s = Driver.stats t in
        Stats.distinct_rules s = d
        && s.Stats.rule_apps = a && s.Stats.evar_insts = ev
        && s.Stats.side_auto = au && s.Stats.side_manual = ma
  in
  let dirty () =
    match e.e_dirty with
    | None -> List.for_all (fun (r : Driver.check_result) -> not r.cached) t.results
    | Some names ->
        List.filter_map
          (fun (r : Driver.check_result) -> if r.cached then None else Some r.name)
          t.results
        = names
  in
  (* every input is lint-clean and warning-free by construction *)
  let ok =
    t.skipped = [] && t.stop = Driver.Completed && t.diagnostics = []
    && List.length t.results = e.e_fns
    && List.for_all verdict t.results
    && List.for_all Checker.ok certs && counters () && dirty ()
  in
  if not ok then say "answer mismatch: %s" file;
  ok

(* ------------------------------------------------------------------ *)
(* Checking pipelines                                                  *)
(* ------------------------------------------------------------------ *)

type input = {
  file : string;
  src : string;
  expect : expect;
  cert : bool;  (** re-check every fresh derivation with Rc_cert *)
  mk_session : ?obs:Obs.cfg -> unit -> Session.t;
  cache : Vercache.t option;
}

let certify ?(traced : ctx option) session (t : Driver.t) =
  List.filter_map
    (fun (r : Driver.check_result) ->
      match r.outcome with
      | Ok res when not r.cached -> (
          let deriv = res.Rc_refinedc.Lang.E.deriv in
          match traced with
          | None -> Some (Checker.check ~session deriv)
          | Some cx ->
              let rep =
                call cx ~pass:true ~parent:"cert" "cert.check" (fun () ->
                    Checker.check ~session deriv)
              in
              count cx "cert.nodes" (float_of_int rep.Checker.nodes);
              Some rep)
      | _ -> None)
    t.results

(* The plain job: what [refinedc check] does per file, plus the
   certificate check. *)
let check_plain (i : input) =
  let session = i.mk_session () in
  let t = Driver.check_source ~session ?cache:i.cache ~file:i.file i.src in
  let certs = if i.cert then certify session t else [] in
  answer_ok ~file:i.file i.expect t certs

let metrics_on = { Obs.c_trace = false; c_metrics = true }
let solvers = [ "default"; "lemmas"; "set_solver"; "multiset_solver" ]

let lint_passes =
  [ "init"; "deref"; "reach"; "spec"; "rules"; "race"; "lockrel"; "lockord" ]

(* The same job split into its public calls, with the session's solver
   metrics on.  The pass is session + parse + elab + check_elaborated +
   cert, in the same order as the plain job.  Afterwards, from a heap
   holding only the session and the elaborated file, the layers inside
   check_elaborated are run one at a time: lint per pass, depgraph, cache
   probe, search of each function check_elaborated re-proved, and the
   store of its entry.  What they do not cover of check_elaborated is the
   residual. *)
let check_traced cx (i : input) =
  let session =
    call cx ~pass:true ~parent:"session" "session.create" (fun () ->
        i.mk_session ~obs:metrics_on ())
  in
  count cx "session.count" 1.;
  let ast =
    call cx ~pass:true ~parent:"frontend" "frontend.parse" (fun () ->
        Rc_frontend.Cparser.parse_file ~file:i.file i.src)
  in
  let elab =
    call cx ~pass:true ~parent:"frontend" "frontend.elab" (fun () ->
        let warnings = Rc_frontend.Warn.check_file ast in
        let e = Elab.elab_file ~tenv:session.Session.tenv ast in
        { e with Elab.warnings = warnings @ e.Elab.warnings })
  in
  let ok, dirty =
    let obs = Obs.create session.Session.obs in
    let t =
      call cx ~pass:true ~parent:"check" "check.elaborated" (fun () ->
          Driver.check_elaborated ~obs ?cache:i.cache ~session ~file:i.file
            elab)
    in
    let certs = if i.cert then certify ~traced:cx session t else [] in
    let m = Obs.mx t.Driver.obs in
    List.iter
      (fun s ->
        add_time cx ("pure." ^ s)
          (Int64.to_float (Metrics.timer_total_ns m ("solver.ns." ^ s)) /. 1e9);
        count cx ("pure." ^ s ^ ".calls")
          (float_of_int (Metrics.counter m ("solver.calls." ^ s))))
      solvers;
    Option.iter
      (fun (hits, misses) ->
        count cx "plan.hits" (float_of_int hits);
        count cx "plan.probes" (float_of_int (hits + misses)))
      t.Driver.cache_stats;
    ( answer_ok ~file:i.file i.expect t certs,
      List.filter_map
        (fun (r : Driver.check_result) ->
          if r.cached then None else Some r.name)
        t.results )
  in
  Gc.full_major ();
  let to_check = elab.Elab.to_check in
  let name_of (f : Typecheck.fn_to_check) = f.spec.Rc_refinedc.Rtype.fs_name in
  List.iter
    (fun p ->
      let s =
        Session.with_lint session
          { Session.l_enabled = true; l_passes = Some [ p ]; l_werror = false }
      in
      match
        call cx ~parent:"analysis" ("analysis." ^ p) (fun () ->
            Rc_analysis.Lint.run ~metas:elab.Elab.metas ~session:s ~file:i.file
              ~funcs:elab.Elab.program.Rc_caesium.Syntax.funcs ~to_check ())
      with
      | ds -> count cx "analysis.diags" (float_of_int (List.length ds))
      | exception Rc_analysis.Lint.Unknown_pass _ -> ())
    lint_passes;
  let graph =
    call cx ~parent:"plan" "plan.depgraph" (fun () -> Depgraph.build to_check)
  in
  let components f = Depgraph.components ~session graph f in
  let id f = Depgraph.cache_id ~file:i.file (name_of f) in
  Option.iter
    (fun vc ->
      call cx ~parent:"plan" "plan.cache_probe" (fun () ->
          List.iter
            (fun f ->
              ignore (Vercache.find_keyed vc ~id:(id f) ~components:(components f)))
            to_check))
    i.cache;
  count cx "plan.dirty" (float_of_int (List.length dirty));
  let specs = List.map (fun f -> (name_of f, f.Typecheck.spec)) to_check in
  List.iter
    (fun f ->
      if List.mem (name_of f) dirty then
        let fobs = Obs.create session.Session.obs in
        match
          call cx ~parent:"lithium" "lithium.search" (fun () ->
              Driver.check_fn_isolated ~obs:fobs ~session ~specs f)
        with
        | Error _ -> ()
        | Ok res -> (
            let stats = res.Rc_refinedc.Lang.E.stats in
            count cx "lithium.rule_apps" (float_of_int stats.Stats.rule_apps);
            match i.cache with
            | None -> ()
            | Some vc ->
                call cx ~parent:"plan" "plan.cache_store" (fun () ->
                    Vercache.store_keyed vc ~id:(id f) ~components:(components f)
                      (Driver.cache_payload stats))))
    to_check;
  let parts =
    sum (List.map (fun p -> time_of cx ("analysis." ^ p)) lint_passes)
    +. time_of cx "plan.depgraph" +. time_of cx "plan.cache_probe"
    +. time_of cx "lithium.search" +. time_of cx "plan.cache_store"
  in
  add_time cx "plan.residual" (time_of cx "check.elaborated" -. parts);
  ok

let run_input ?traced i =
  match traced with None -> check_plain i | Some cx -> check_traced cx i

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A job is one unit of a round; it returns whether every answer
   matched.  [prepared] is what one timed set-up yields. *)
type job = { name : string; run : ?traced:ctx -> unit -> bool }

type prepared = {
  jobs : job list;
  inputs : (string * string) list;  (** (name, content) the seed generated *)
}

type workload = {
  w_name : string;
  why : string;
  setup : seed:int -> rep:int -> prepared;
  setups_per_round : int;  (** cheap set-ups are repeated more often *)
  per_round : (ctx -> bool) option;
      (** traced run only: extra layer probes, once per traced round *)
}

let work_root = ".perfbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let read path = In_channel.with_open_bin path In_channel.input_all
let case_dir = "case_studies"

let load_case_studies () =
  List.map
    (fun (f, _) -> (f, read (Filename.concat case_dir f)))
    fig7_functions

let studies_session ?obs () = Api.create_session ~case_studies:true ?obs ()
let plain_session ?obs () = Api.create_session ?obs ()

let fig7_prove =
  {
    w_name = "fig7_prove";
    why =
      "the paper's own corpus, cold; the only input that reaches the lemmas, \
       set and multiset solvers and the case-study named types";
    setups_per_round = 1;
    setup =
      (fun ~seed:_ ~rep:_ ->
        let files = load_case_studies () in
        ignore (studies_session ());
        let job (file, src) =
          let i =
            {
              file; src; cert = true; mk_session = studies_session; cache = None;
              expect =
                {
                  e_fns = List.assoc file fig7_functions; e_fail = None;
                  e_counters = List.assoc_opt file fig7_counters;
                  e_dirty = None;
                };
            }
          in
          { name = file; run = (fun ?traced () -> run_input ?traced i) }
        in
        { jobs = List.map job files; inputs = files });
    per_round = None;
  }

(* Stress programs, sized so that none is more than about a third of a
   pass.  The seed moves only the sizes of the two cheapest families (call
   chain, loop farm), by under 1% of a pass, so that seeds do not widen
   the spread; diamond depth doubles the cost per step and stays fixed.  wide_exprs verifies at 20 statements and fails at 30 on a
   genuine signed-overflow side condition: the failure path is timed too. *)
let stress_inputs ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let jit n = Random.State.int rng n in
  let chain = 24 + jit 4 and loops = 16 + jit 4 in
  (* (file, source, specified functions, the function that must fail) *)
  [
    ("diamonds_small.c", Gen.diamond_chain ~k:8, 1, None);
    ("diamonds_large.c", Gen.diamond_chain ~k:11, 1, None);
    ("call_chain.c", Gen.call_chain ~weight:0 ~n:chain, chain, None);
    ("call_chain_weighted.c", Gen.call_chain ~weight:4 ~n:24, 24, None);
    ("diamond_farm.c", Gen.diamond_farm ~functions:8 ~k:6, 8, None);
    ("struct_nest.c", Gen.struct_nest ~depth:16, 1, None);
    ("wide_exprs.c", Gen.wide_exprs ~stmts:20 ~width:3, 1, None);
    ("wide_exprs_overflow.c", Gen.wide_exprs ~stmts:30 ~width:3, 1, Some "wide");
    ("loop_farm.c", Gen.loop_farm ~functions:loops, loops, None);
  ]

let stress_prove =
  {
    w_name = "stress_prove";
    why =
      "exponential search (diamonds), solver-bound code (wide_exprs), \
       ownership nesting and one expected failure, cold on the default engine \
       configuration; engine, solver and cert changes show here";
    setups_per_round = 8;
    setup =
      (fun ~seed ~rep:_ ->
        let progs = stress_inputs ~seed in
        ignore (plain_session ());
        let job (file, src, fns, fail) =
          let i =
            {
              file; src; cert = true; mk_session = plain_session; cache = None;
              expect =
                { e_fns = fns; e_fail = fail; e_counters = None; e_dirty = None };
            }
          in
          { name = file; run = (fun ?traced () -> run_input ?traced i) }
        in
        {
          jobs = List.map job progs;
          inputs = List.map (fun (f, s, _, _) -> (f, s)) progs;
        });
    per_round = None;
  }

(* The edit session: one generated file of about 200 functions, primed
   cold into an on-disk cache at set-up, then a stream of single-function
   edits of loop-farm functions, each re-checked through the cache.  Each
   target is a distinct (function, edit kind) pair; every edit of it
   carries a fresh nonce, so every re-check re-proves exactly one
   function. *)
let edit_targets = 30

let edit_file ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  {
    Gen.loops = 168 + Random.State.int rng 5;
    crits = 12;
    chain = 16 + Random.State.int rng 3;
    weight = 3;
  }

let edit_session =
  let nonce = ref 0 in
  {
    w_name = "edit_session";
    why =
      "frontend, lint, depgraph and cache probe dominate a one-function \
       re-check; the cache is read on every probe and written once per edit";
    setups_per_round = 3;
    setup =
      (fun ~seed ~rep ->
        let sf = edit_file ~seed in
        let file = "edit_session.c" in
        let src = Gen.session_source sf in
        let dir =
          Filename.concat work_root (Printf.sprintf "edit_session/cache%d" rep)
        in
        let vc = Vercache.create dir in
        let fns = sf.loops + sf.crits + sf.chain + 2 in
        let prime =
          {
            file; src; cert = false; mk_session = studies_session;
            cache = Some vc;
            expect =
              { e_fns = fns; e_fail = None; e_counters = None; e_dirty = None };
          }
        in
        let primed = check_plain prime in
        let fns_order =
          shuffle (Random.State.make [| seed; 3 |]) (Array.init sf.loops Fun.id)
        in
        let job k =
          let fn = fns_order.(k) in
          let kind = [| Gen.Body; Gen.Spec; Gen.Inv |].(k mod 3) in
          {
            name = Printf.sprintf "%s:count%d" (Gen.kind_name kind) fn;
            run =
              (fun ?traced () ->
                incr nonce;
                let src =
                  Gen.session_source ~edit:{ Gen.kind; fn; nonce = !nonce } sf
                in
                primed
                && run_input ?traced
                     {
                       prime with
                       src;
                       expect =
                         {
                           prime.expect with
                           e_dirty = Some [ Printf.sprintf "count%d" fn ];
                         };
                     });
          }
        in
        { jobs = List.init (min edit_targets sf.loops) job; inputs = [ (file, src) ] });
    per_round = None;
  }

(* Semantic testing: [Semtest.check_fn] with the program defaults (seed
   7, 200k-step fuel) on fuel-bound Figure-7 functions, where the Caesium
   interpreter does the work.  A full default campaign (50 runs) takes
   2-6 s per function, so each campaign here is the first [semtest_runs]
   runs of the default campaign (same seed, same inputs).  mpool_alloc,
   mpool_free and spin_lock reach the fuel only in later runs; in the
   first runs they finish in about 1 ms, another cost class, so they are
   left out. *)
let semtest_runs = 2

(* A fixed-step interpreter loop: spin_lock on a held lock never returns,
   so every step is real work and the step count is exact. *)
let caesium_steps = 200_000

let caesium_loop prog =
  let m = Eval.create ~detect_races:false prog in
  let l = Rc_caesium.Heap.alloc m.Eval.heap 4 in
  Rc_caesium.Heap.store m.Eval.heap l
    (Rc_caesium.Value.of_int Rc_caesium.Int_type.i32 1);
  let th =
    {
      Eval.tid = 0; frames = []; finished = false; result = None;
      clock = Eval.Vc.create 1;
    }
  in
  m.Eval.threads <- [ th ];
  Eval.push_call m th "spin_lock" [ Rc_caesium.Value.of_loc l ] None;
  match
    for _ = 1 to caesium_steps do
      Eval.step m th
    done
  with
  | () -> true
  | exception (Eval.Thread_done | Rc_caesium.Ub.Undef _) -> false

let fig7_semtest =
  let spinlock = ref None in
  {
    w_name = "fig7_semtest";
    why =
      "the only workload where the Caesium interpreter and the semantic \
       input generator do the work; restricted to the fuel-bound functions \
       so that all campaigns are of one cost class";
    setups_per_round = 4;
    setup =
      (fun ~seed:_ ~rep:_ ->
        let files = load_case_studies () in
        let elaborated =
          List.map
            (fun (file, src) ->
              let session = studies_session () in
              (file, (session, Driver.parse_and_elab ~session ~file src)))
            files
        in
        spinlock :=
          Some (snd (List.assoc "spinlock.c" elaborated)).Elab.program;
        let job (file, fname) =
          let session, e = List.assoc file elaborated in
          let impls =
            List.map
              (fun (f : Typecheck.fn_to_check) ->
                (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
              e.Elab.to_check
          in
          let spec = List.assoc fname impls in
          let campaign () =
            Semtest.check_fn ~runs:semtest_runs ~impls ~session e.Elab.program
              spec
          in
          let judge = function
            | Semtest.Passed n -> n = semtest_runs
            | Semtest.Skipped why ->
                say "%s skipped: %s" fname why;
                false
            | Semtest.Ub_found msg ->
                say "%s UB: %s" fname msg;
                false
          in
          {
            name = fname;
            run =
              (fun ?traced () ->
                match traced with
                | None -> judge (campaign ())
                | Some cx ->
                    count cx "sem.count" 1.;
                    let o =
                      call cx ~pass:true ~parent:"sem" "sem.campaign" campaign
                    in
                    (match o with
                    | Semtest.Passed n ->
                        count cx "sem.executions" (float_of_int n)
                    | _ -> ());
                    judge o);
          }
        in
        { jobs = List.map job fuel_bound; inputs = files });
    per_round =
      Some
        (fun cx ->
          ignore
            (call cx ~parent:"session" "session.create" (fun () ->
                 studies_session ()));
          count cx "session.count" 1.;
          match !spinlock with
          | None -> false
          | Some prog ->
              count cx "caesium.steps" (float_of_int caesium_steps);
              call cx ~parent:"caesium" "caesium.loop" (fun () ->
                  caesium_loop prog));
  }

let workloads = [ fig7_prove; stress_prove; edit_session; fig7_semtest ]

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable setups : float list;  (** calibrated set-up seconds *)
}

let new_tally () = { attempted = 0; failed = 0; setups = [] }

let judge tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* a job that raises has failed, like one with a wrong answer *)
let guarded run () =
  match run () with
  | ok -> ok
  | exception e ->
      say "job raised %s" (Printexc.to_string e);
      false

(* One timed set-up.  Writes still pending from earlier work are flushed
   first, so that every set-up starts from the same disk state. *)
let timed_setup w ~seed ~rep =
  ignore (Sys.command "sync");
  let p, _, _, dt = calibrated (fun () -> w.setup ~seed ~rep) in
  (p, dt)

(* More timed set-ups, discarded; interleaved with the rounds so that
   the set-up median samples the whole run, like the job medians. *)
let extra_setups w ~seed ~round tally =
  for k = 1 to w.setups_per_round do
    let rep = 2 + (round * w.setups_per_round) + k in
    let _, dt = timed_setup w ~seed ~rep in
    tally.setups <- dt :: tally.setups
  done

(* Per-job samples: [times.(j)] and [words.(j)] for job [j]. *)
type samples = { times : float list array; words : float list array }

let new_samples n = { times = Array.make n []; words = Array.make n [] }

(* One round of the plain jobs. *)
let untraced_round ?(shuffled = true) rng tally s (jobs : job array) =
  Array.iter
    (fun j ->
      let ok, _, words, dt = calibrated (guarded (fun () -> jobs.(j).run ())) in
      judge tally ok;
      s.times.(j) <- dt :: s.times.(j);
      s.words.(j) <- words :: s.words.(j))
    (let order = Array.init (Array.length jobs) Fun.id in
     if shuffled then shuffle rng order else order)

let pass_of (l : float list array) = sum (Array.to_list (Array.map median l))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct tally metrics =
  let ms =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " ms)

let print_jobs (jobs : job array) s =
  Printf.printf "%-28s %6s %10s %10s %10s %10s\n" "job" "n" "q1_ms" "median_ms"
    "q3_ms" "mwords";
  Array.iteri
    (fun j (job : job) ->
      let t = s.times.(j) in
      Printf.printf "%-28s %6d %10.3f %10.3f %10.3f %10.3f\n" job.name
        (List.length t) (1e3 *. quantile 0.25 t) (1e3 *. median t)
        (1e3 *. quantile 0.75 t) (median s.words.(j) /. 1e6))
    jobs

(* ------------------------------------------------------------------ *)
(* The plain run: end-to-end metrics                                   *)
(* ------------------------------------------------------------------ *)

let min_rounds = 3

let plain_run w ~seed ~seconds =
  let tally = new_tally () in
  let p, dt = timed_setup w ~seed ~rep:0 in
  tally.setups <- [ dt ];
  let again = w.setup ~seed ~rep:1 in
  let same = again.inputs = p.inputs in
  if not same then say "inputs differ between two set-ups with seed %d" seed;
  List.iter
    (fun (n, c) -> say "input %s %s" n (Digest.to_hex (Digest.string c)))
    p.inputs;
  let jobs = Array.of_list p.jobs in
  let s = new_samples (Array.length jobs) in
  let rng = Random.State.make [| seed; 4 |] in
  let deadline = now () +. seconds in
  let round = ref 0 in
  (* the top of the heap is read after a first round in a fixed order,
     where the allocation sequence does not depend on timing *)
  let heap = ref 0 in
  while !round < min_rounds || now () < deadline do
    extra_setups w ~seed ~round:!round tally;
    untraced_round ~shuffled:(!round > 0) rng tally s jobs;
    if !round = 0 then heap := (Gc.quick_stat ()).Gc.top_heap_words;
    incr round
  done;
  print_jobs jobs s;
  let setups = tally.setups in
  let job_medians = Array.to_list (Array.map median s.times) in
  let pass_s = pass_of s.times in
  Printf.printf
    "rounds %d; setup_s median %.4f (n=%d, q1 %.4f, q3 %.4f); pass_s %.4f \
     (sum of job q1 %.4f, q3 %.4f)\n"
    !round (median setups) (List.length setups) (quantile 0.25 setups)
    (quantile 0.75 setups) pass_s
    (sum (Array.to_list (Array.map (quantile 0.25) s.times)))
    (sum (Array.to_list (Array.map (quantile 0.75) s.times)));
  let heap = !heap * (Sys.word_size / 8) in
  print_result ~correct:(same && tally.failed = 0) tally
    [
      ("setup_s", median setups, "s");
      ("pass_s", pass_s, "s");
      ("unit_ms_p50", 1e3 *. median job_medians, "ms");
      ("unit_ms_p90", 1e3 *. quantile 0.9 job_medians, "ms");
      ("alloc_mwords", pass_of s.words /. 1e6, "Mwords");
      ("peak_heap_mb", float_of_int heap /. 1e6, "MB");
    ]

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

(* [supervisor.j2_over_j1]: check-only passes over the stress inputs at
   -j 2 and -j 1, in alternating pairs; the median of the pair ratios.
   Recorded, not gated. *)
let j2_over_j1 ~seed =
  let progs = stress_inputs ~seed in
  let pass jobs =
    let _, dt, _ =
      measure (fun () ->
          List.iter
            (fun (file, src, _, _) ->
              ignore
                (Driver.check_source ~session:(plain_session ()) ~jobs ~file src))
            progs)
    in
    dt
  in
  let ratios =
    List.init 3 (fun k ->
        if k mod 2 = 0 then
          let j1 = pass 1 in
          pass 2 /. j1
        else
          let j2 = pass 2 in
          j2 /. pass 1)
  in
  median ratios

let traced_run w ~seed ~seconds =
  let tally = new_tally () in
  let p = w.setup ~seed ~rep:0 in
  let jobs = Array.of_list p.jobs in
  let n = Array.length jobs in
  let plain = new_samples n in
  (* per job (index [n] = the per-round extras): key -> samples *)
  let layered = Array.init (n + 1) (fun _ -> Hashtbl.create 64) in
  let push j tbl =
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace layered.(j) k
          (v :: Option.value ~default:[] (Hashtbl.find_opt layered.(j) k)))
      tbl
  in
  (* run [f] under calibration, then keep its calibrated layer times *)
  let traced j tr f =
    let cx = new_ctx tr in
    let ok, dt, _, cal = calibrated (guarded (fun () -> f cx)) in
    judge tally ok;
    let scale = if dt > 0. then cal /. dt else 1. in
    Hashtbl.filter_map_inplace (fun _ v -> Some (v *. scale)) cx.times;
    push j cx.times;
    push j cx.counts
  in
  let trace = Trace.make () in
  Trace.name_lane trace ~tid:0 ("perfbench:" ^ w.w_name);
  let rng = Random.State.make [| seed; 4 |] in
  let j21 =
    if w.w_name = stress_prove.w_name then Some (j2_over_j1 ~seed) else None
  in
  let deadline = now () +. seconds in
  let round = ref 0 in
  (* plain and traced rounds alternate, so both see the same host phases;
     at least two of each *)
  while !round < 4 || now () < deadline do
    if !round mod 2 = 0 then untraced_round rng tally plain jobs
    else begin
      (* spans of the first rounds only, to bound the trace file *)
      let tr = if !round < 20 then trace else Trace.off in
      let t_round = Trace.now_ns () in
      Array.iter
        (fun j ->
          let t_job = Trace.now_ns () in
          traced j tr (fun cx -> jobs.(j).run ~traced:cx ());
          span tr ~cat:"job" jobs.(j).name t_job)
        (shuffle rng (Array.init n Fun.id));
      Option.iter (traced n tr) w.per_round;
      span tr ~cat:"round" (Printf.sprintf "round%d" (!round / 2)) t_round
    end;
    incr round
  done;
  (* per pass: the sum over jobs of each job's median *)
  let per_pass key =
    sum
      (Array.to_list
         (Array.map
            (fun h -> median (Option.value ~default:[] (Hashtbl.find_opt h key)))
            layered))
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let ms key = 1e3 *. per_pass key in
  let traced_pass = per_pass "pass" and plain_pass = pass_of plain.times in
  let search_s = per_pass "lithium.search" in
  let apps = per_pass "lithium.rule_apps" in
  let cert_s = per_pass "cert.check" and nodes = per_pass "cert.nodes" in
  let trace_file =
    Filename.concat work_root (Printf.sprintf "trace-%s.json" w.w_name)
  in
  Trace.write_chrome trace trace_file;
  Printf.printf "trace written to %s (%d events, balance issues: %d)\n"
    trace_file (Trace.event_count trace)
    (List.length (Trace.check_balance trace));
  print_jobs jobs plain;
  print_result ~correct:(tally.failed = 0) tally
    ([
       ("frontend.parse_ms", ms "frontend.parse", "ms");
       ("frontend.elab_ms", ms "frontend.elab", "ms");
       ( "frontend.alloc_mwords",
         (per_pass "frontend.parse.words" +. per_pass "frontend.elab.words")
         /. 1e6,
         "Mwords" );
     ]
    @ List.map
        (fun p -> ("analysis." ^ p ^ "_ms", ms ("analysis." ^ p), "ms"))
        lint_passes
    @ [
        ("analysis.diags", per_pass "analysis.diags", "count");
        ("plan.depgraph_ms", ms "plan.depgraph", "ms");
        ("plan.cache_probe_ms", ms "plan.cache_probe", "ms");
        ( "plan.cache_hit_ratio",
          ratio (per_pass "plan.hits") (per_pass "plan.probes"),
          "ratio" );
        ("plan.dirty_fns", per_pass "plan.dirty", "count");
        ("plan.cache_store_ms", ms "plan.cache_store", "ms");
        ("plan.residual_ms", ms "plan.residual", "ms");
        ("lithium.search_s", search_s, "s");
        ("lithium.rule_apps", apps, "count");
        ("lithium.apps_per_s", ratio apps search_s, "1/s");
        ("lithium.alloc_mwords", per_pass "lithium.search.words" /. 1e6, "Mwords");
      ]
    @ List.concat_map
        (fun s ->
          [
            ("pure." ^ s ^ "_ms", ms ("pure." ^ s), "ms");
            ("pure." ^ s ^ "_calls", per_pass ("pure." ^ s ^ ".calls"), "count");
          ])
        solvers
    @ [
        ("cert.check_s", cert_s, "s");
        ("cert.nodes", nodes, "count");
        ("cert.nodes_per_s", ratio nodes cert_s, "1/s");
        ( "sem.campaign_s",
          ratio (per_pass "sem.campaign") (per_pass "sem.count"),
          "s" );
        ("sem.executions", per_pass "sem.executions", "count");
        ("sem.alloc_mwords", per_pass "sem.campaign.words" /. 1e6, "Mwords");
        ( "caesium.steps_per_s",
          ratio (per_pass "caesium.steps") (per_pass "caesium.loop"),
          "1/s" );
        ( "session.create_ms",
          ratio (ms "session.create") (per_pass "session.count"),
          "ms" );
        ("trace.pass_s", traced_pass, "s");
        ("trace.untraced_pass_s", plain_pass, "s");
        ("trace.overhead_s", traced_pass -. plain_pass, "s");
        ("supervisor.j2_over_j1", Option.value ~default:0. j21, "ratio");
      ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 plain (0) or traced (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.w_name = !workload) workloads with
  | None ->
      say "unknown workload %S; one of: %s" !workload
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  | Some w ->
      if not (Sys.file_exists case_dir) then begin
        say "no %s/ here: run from the root of the repository" case_dir;
        exit 2
      end;
      let dir = Filename.concat work_root w.w_name in
      rm_rf dir;
      mkdir_p dir;
      Printf.printf "workload %s (seed %d): %s\n" w.w_name !seed w.why;
      if !trace = 0 then plain_run w ~seed:!seed ~seconds:!seconds
      else traced_run w ~seed:!seed ~seconds:!seconds;
      rm_rf dir
