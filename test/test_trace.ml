(* The observability layer: span-tree well-formedness, determinism of
   the exported trace and metrics across [-j N], the zero-cost disabled
   path, and composition with the verification cache and with
   fault-injection campaigns.

   The determinism contract under test (DESIGN.md §7): the *logical*
   event sequence — span names, nesting, categories, arguments, counter
   values — is a pure function of the session configuration and the
   source.  Only timestamps, durations and the [sched] category (task →
   domain placement) may differ between runs, and [~normalize:true]
   erases exactly those. *)

module Driver = Rc_frontend.Driver
module Session = Rc_refinedc.Session
module Trace = Rc_util.Trace
module Metrics = Rc_util.Metrics
module Obs = Rc_util.Obs
module Stats = Rc_lithium.Stats
module Faultsim = Rc_util.Faultsim

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let obs_cfg = { Obs.c_trace = true; c_metrics = true }

let session () = Session.with_obs (Rc_studies.Studies.session ()) obs_cfg

let check ?(session = session ()) ?jobs ?cache file =
  Driver.check_file ~session ?jobs ?cache (Filename.concat case_dir file)

(* ------------------------------------------------------------------ *)
(* Satellite: Stats.merge must preserve source order of manual_detail  *)
(* ------------------------------------------------------------------ *)

let stats_merge_tests =
  [
    Alcotest.test_case "merge keeps manual_detail in source order" `Quick
      (fun () ->
        let mk sides =
          let s = Stats.create () in
          List.iter
            (fun (solver, printed) ->
              Stats.record_side s (Rc_pure.Registry.Via_solver solver) printed)
            sides;
          s
        in
        (* [a] is the earlier (source-order) function, [b] the later *)
        let a = mk [ ("s1", "pa1"); ("s1", "pa2") ] in
        let b = mk [ ("s2", "pb1"); ("s2", "pb2") ] in
        Stats.merge a b;
        let json = Stats.to_json a in
        let find needle =
          match Str.search_forward (Str.regexp_string needle) json 0 with
          | i -> i
          | exception Not_found ->
              Alcotest.failf "%S not found in %s" needle json
        in
        (* chronological in the serialized output: a's entries, in their
           own order, then b's *)
        let order = List.map find [ "pa1"; "pa2"; "pb1"; "pb2" ] in
        Alcotest.(check bool)
          "pa1 < pa2 < pb1 < pb2 in serialized order" true
          (List.sort compare order = order);
        Alcotest.(check int) "manual count" 4 a.Stats.side_manual);
    Alcotest.test_case "merge is associative on manual_detail" `Quick
      (fun () ->
        let mk tag =
          let s = Stats.create () in
          Stats.record_side s (Rc_pure.Registry.Via_lemma tag) ("p" ^ tag);
          s
        in
        let left = mk "1" in
        Stats.merge left (mk "2");
        Stats.merge left (mk "3");
        let right23 = mk "2" in
        Stats.merge right23 (mk "3");
        let right = mk "1" in
        Stats.merge right right23;
        Alcotest.(check string)
          "(1+2)+3 = 1+(2+3)" (Stats.to_json left) (Stats.to_json right));
  ]

(* ------------------------------------------------------------------ *)
(* Trace primitives                                                    *)
(* ------------------------------------------------------------------ *)

let primitive_tests =
  [
    Alcotest.test_case "check_balance accepts a balanced trace" `Quick
      (fun () ->
        let t = Trace.make () in
        Trace.span_begin t ~cat:"x" "outer";
        Trace.span_begin t ~cat:"x" "inner";
        Trace.span_end t ~cat:"x" "inner";
        Trace.instant t ~cat:"x" "tick";
        Trace.span_end t ~cat:"x" "outer";
        Alcotest.(check (list string)) "no issues" [] (Trace.check_balance t));
    Alcotest.test_case "check_balance flags unclosed and mismatched spans"
      `Quick (fun () ->
        let t = Trace.make () in
        Trace.span_begin t ~cat:"x" "a";
        Trace.span_end t ~cat:"x" "b";
        Trace.span_begin t ~cat:"x" "c";
        Alcotest.(check int)
          "two issues" 2
          (List.length (Trace.check_balance t)));
    Alcotest.test_case "normalize strips sched and zeroes time" `Quick
      (fun () ->
        let t = Trace.make () in
        Trace.instant t ~cat:"sched" "task:begin";
        Trace.span_begin t ~cat:"check" "fn:f";
        Trace.span_end t ~cat:"check" "fn:f";
        let s = Trace.to_chrome_string ~normalize:true t in
        Alcotest.(check bool)
          "no sched events" false
          (try
             ignore (Str.search_forward (Str.regexp_string "sched") s 0);
             true
           with Not_found -> false);
        Alcotest.(check bool)
          "fn span survives" true
          (try
             ignore (Str.search_forward (Str.regexp_string "fn:f") s 0);
             true
           with Not_found -> false));
    Alcotest.test_case "timestamps keep microseconds after hours of uptime"
      `Quick (fun () ->
        (* 9 h of monotonic time: [%.6g] would print 3.24e+10 here *)
        let start_ns = 32_400_123_456_789L and dur_ns = 1_234_567L in
        let t = Trace.make () in
        Trace.complete t ~cat:"x" ~start_ns ~dur_ns "late";
        let ev =
          match Rc_util.Jsonout.parse (Trace.to_chrome_string t) with
          | Error e -> Alcotest.fail e
          | Ok v -> (
              match Rc_util.Jsonout.member "traceEvents" v with
              | Some (Rc_util.Jsonout.List [ ev ]) -> ev
              | _ -> Alcotest.fail "expected one event")
        in
        let us k =
          match Rc_util.Jsonout.number_member k ev with
          | Some f -> f
          | None -> Alcotest.failf "no %s" k
        in
        let within k ns =
          Alcotest.(check bool)
            (k ^ " within 1 us") true
            (Float.abs (us k -. (Int64.to_float ns /. 1e3)) <= 1.)
        in
        within "ts" start_ns;
        within "dur" dur_ns);
    Alcotest.test_case "disabled tracer records nothing" `Quick (fun () ->
        let t = Trace.off in
        Trace.span_begin t ~cat:"x" "a";
        Trace.instant t ~cat:"x" "b";
        Trace.span_end t ~cat:"x" "a";
        Alcotest.(check int) "no events" 0 (Trace.event_count t));
    Alcotest.test_case "metrics merge is deterministic and additive" `Quick
      (fun () ->
        let a = Metrics.make () and b = Metrics.make () in
        Metrics.incr a "k";
        Metrics.incr b ~by:2 "k";
        Metrics.observe_ns a "t" 100L;
        Metrics.observe_ns b "t" 200L;
        Metrics.merge a b;
        Alcotest.(check int) "counter" 3 (Metrics.counter a "k");
        Alcotest.(check int) "timer count" 2 (Metrics.timer_count a "t");
        Alcotest.(check int64)
          "timer total" 300L
          (Metrics.timer_total_ns a "t"));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline traces                                                     *)
(* ------------------------------------------------------------------ *)

let norm_trace (t : Driver.t) =
  Trace.to_chrome_string ~normalize:true (Obs.tr t.Driver.obs)

let norm_metrics (t : Driver.t) =
  Rc_util.Jsonout.to_string
    (Metrics.to_json ~timings:false (Obs.mx t.Driver.obs))

let pipeline_tests =
  [
    Alcotest.test_case "trace is balanced and non-empty" `Quick (fun () ->
        let t = check "binary_search.c" in
        let tr = Obs.tr t.Driver.obs in
        Alcotest.(check bool) "has events" true (Trace.event_count tr > 0);
        Alcotest.(check (list string)) "balanced" [] (Trace.check_balance tr);
        (* the span tree covers all layers of the pipeline *)
        let s = Trace.to_chrome_string tr in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " present") true
              (try
                 ignore (Str.search_forward (Str.regexp_string needle) s 0);
                 true
               with Not_found -> false))
          [ "phase:parse"; "phase:elab"; "phase:check"; "rule:"; "solve" ])
    ;
    Alcotest.test_case "metrics mirror the Figure-7 statistics" `Quick
      (fun () ->
        let t = check "binary_search.c" in
        let m = Obs.mx t.Driver.obs in
        let s = Driver.stats t in
        Alcotest.(check int)
          "evar.insts" s.Stats.evar_insts
          (Metrics.counter m "evar.insts");
        Alcotest.(check int)
          "side.auto" s.Stats.side_auto
          (Metrics.counter m "side.auto");
        Alcotest.(check int)
          "side.manual" s.Stats.side_manual
          (Metrics.counter m "side.manual");
        let rule_apps_total =
          List.fold_left
            (fun acc (_, n) -> acc + n)
            0
            (Metrics.counters_with_prefix m ~prefix:"rule.apps.")
        in
        Alcotest.(check int) "rule.apps.*" s.Stats.rule_apps rule_apps_total);
    Alcotest.test_case "-j1 and -j4 traces are byte-identical normalized"
      `Quick (fun () ->
        if not Rc_util.Supervisor.parallelism_available then Alcotest.skip ();
        let seq = check ~jobs:1 "hashmap.c" in
        let par = check ~jobs:4 "hashmap.c" in
        Alcotest.(check string)
          "normalized trace" (norm_trace seq) (norm_trace par);
        Alcotest.(check string)
          "count-only metrics" (norm_metrics seq) (norm_metrics par));
    Alcotest.test_case "observability off means no trace, no metrics"
      `Quick (fun () ->
        let t =
          Driver.check_file
            ~session:(Rc_studies.Studies.session ())
            (Filename.concat case_dir "binary_search.c")
        in
        Alcotest.(check bool) "obs off" false (Obs.on t.Driver.obs);
        Alcotest.(check int)
          "no events" 0
          (Trace.event_count (Obs.tr t.Driver.obs));
        Alcotest.(check string)
          "metrics block is null" "null"
          (Rc_util.Jsonout.to_string
             (Metrics.to_json (Obs.mx t.Driver.obs))));
    Alcotest.test_case "verdicts unchanged by observability" `Quick
      (fun () ->
        let on = check "queue.c" in
        let off =
          Driver.check_file
            ~session:(Rc_studies.Studies.session ())
            (Filename.concat case_dir "queue.c")
        in
        Alcotest.(check string)
          "same report"
          (Rc_util.Jsonout.to_string (Driver.to_json ~timings:false off))
          (Rc_util.Jsonout.to_string
             (Driver.to_json ~timings:false
                { on with Driver.obs = Obs.off })))
    ;
  ]

(* ------------------------------------------------------------------ *)
(* Composition: cache and fault injection                              *)
(* ------------------------------------------------------------------ *)

(* distinct scratch directory per run ({!Rc_util.Vercache.create} makes
   the directory itself) *)
let tmpdir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  base ^ "-d"

let composition_tests =
  [
    Alcotest.test_case "cache hits/misses recorded in metrics" `Quick
      (fun () ->
        let dir = tmpdir "rc-trace-cache" in
        let cache = Rc_util.Vercache.create dir in
        let cold = check ~cache "linked_list.c" in
        let warm = check ~cache "linked_list.c" in
        let n = List.length cold.Driver.results in
        let counter t k = Metrics.counter (Obs.mx t.Driver.obs) k in
        Alcotest.(check int) "cold misses" n (counter cold "cache.miss");
        Alcotest.(check int) "cold hits" 0 (counter cold "cache.hit");
        Alcotest.(check int) "warm hits" n (counter warm "cache.hit");
        Alcotest.(check int) "warm misses" 0 (counter warm "cache.miss");
        (match warm.Driver.cache_stats with
        | Some (hits, misses) ->
            Alcotest.(check int) "metrics agree with cache_stats (hits)"
              hits (counter warm "cache.hit");
            Alcotest.(check int) "metrics agree with cache_stats (misses)"
              misses (counter warm "cache.miss")
        | None -> Alcotest.fail "expected cache stats");
        Alcotest.(check (list string))
          "warm trace still balanced" []
          (Trace.check_balance (Obs.tr warm.Driver.obs)));
    Alcotest.test_case "trace stays balanced under injected faults" `Quick
      (fun () ->
        (* a campaign that kills the first solver call: the rule spans
           open at the crash must be closed during unwinding, so the
           exported trace still balances *)
        let campaign =
          Faultsim.create ~rate:1.0 ~sites:[ "solver" ] ~max_faults:1 42
        in
        let session =
          Session.with_obs
            (Session.with_fault
               (Rc_studies.Studies.session ())
               (Some campaign))
            obs_cfg
        in
        let t = check ~session "binary_search.c" in
        Alcotest.(check bool)
          "campaign fired" true
          (List.length (Driver.faults t) > 0);
        let tr = Obs.tr t.Driver.obs in
        Alcotest.(check bool) "has events" true (Trace.event_count tr > 0);
        Alcotest.(check (list string)) "balanced" [] (Trace.check_balance tr));
    Alcotest.test_case "trace stays balanced under an exhausted budget"
      `Quick (fun () ->
        let session =
          Session.with_obs
            (Session.with_budget
               (Rc_studies.Studies.session ())
               { Rc_util.Budget.fuel = Some 10; timeout = None;
                 max_depth = None })
            obs_cfg
        in
        let t = check ~session "hashmap.c" in
        Alcotest.(check bool)
          "budget fired" true
          (List.length (Driver.faults t) > 0);
        let m = Obs.mx t.Driver.obs in
        Alcotest.(check bool)
          "budget counter recorded" true
          (Metrics.counter m "budget.out_of_fuel" > 0);
        Alcotest.(check (list string))
          "balanced" []
          (Trace.check_balance (Obs.tr t.Driver.obs)));
  ]

let () =
  Alcotest.run "trace"
    [
      ("stats_merge", stats_merge_tests);
      ("primitives", primitive_tests);
      ("pipeline", pipeline_tests);
      ("composition", composition_tests);
    ]
