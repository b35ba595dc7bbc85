(* The engine-speed features must be semantically invisible: goal
   interning, within-run subgoal memoization ([--memo]) and
   profile-guided dispatch ([--pgo]) may change wall-clock time and the
   memo counters, but never verdicts, Figure-7 statistics, diagnostics,
   exit codes or the [--json] report.  These tests pin that equivalence
   over the full case-study corpus and a sample of the generated stress
   corpus, plus the interning primitives themselves. *)

module Driver = Rc_frontend.Driver
module Stats = Rc_lithium.Stats
module Goal = Rc_lithium.Goal
module Session = Rc_refinedc.Session
module Corpus = Rc_benchgen.Corpus

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let corpus_files =
  [
    "linked_list.c"; "queue.c"; "binary_search.c"; "talloc.c";
    "page_alloc.c"; "bst_layered.c"; "bst_direct.c"; "hashmap.c";
    "mpool.c"; "spinlock.c"; "barrier.c";
  ]

let memo_on = { Session.default_memo with Session.mm_enabled = true }

let studies_session ?(memo = false) () =
  let s = Rc_studies.Studies.session () in
  if memo then Session.with_memo s memo_on else s

let plain_session ?(memo = false) () =
  let s = Rc_session.Refinedc_api.create_session () in
  if memo then Session.with_memo s memo_on else s

let json t = Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)

(* ------------------------------------------------------------------ *)
(* Interning primitives                                                *)
(* ------------------------------------------------------------------ *)

let test_intern_roundtrip () =
  let t = Goal.Intern.create ~expected:2 () in
  let keys = List.init 100 (fun i -> Printf.sprintf "goal<%d>" i) in
  let ids = List.map (Goal.Intern.id t) keys in
  (* dense ids, in first-seen order *)
  Alcotest.(check (list int)) "dense ids" (List.init 100 Fun.id) ids;
  (* interning again is stable *)
  Alcotest.(check (list int)) "stable" ids (List.map (Goal.Intern.id t) keys);
  (* names round-trip *)
  List.iter2
    (fun k i ->
      Alcotest.(check string) "name round-trip" k (Goal.Intern.name t i))
    keys ids;
  Alcotest.(check int) "size" 100 (Goal.Intern.size t);
  Alcotest.(check bool) "mem" true (Goal.Intern.mem t "goal<42>");
  Alcotest.(check bool) "not mem" false (Goal.Intern.mem t "goal<100>")

let test_intern_bounds () =
  let t = Goal.Intern.create () in
  ignore (Goal.Intern.id t "only");
  Alcotest.check_raises "out of range" (Invalid_argument "Intern.name")
    (fun () -> ignore (Goal.Intern.name t 1));
  Alcotest.check_raises "negative" (Invalid_argument "Intern.name")
    (fun () -> ignore (Goal.Intern.name t (-1)))

(* ------------------------------------------------------------------ *)
(* Observational equivalence of memo-on and memo-off                   *)
(* ------------------------------------------------------------------ *)

(* Everything the CLI reports except wall-clock time and the memo
   counters themselves (which are the *only* fields allowed to move). *)
let signature (t : Driver.t) : string list =
  List.map
    (fun (r : Driver.check_result) ->
      match r.outcome with
      | Ok res ->
          let s = res.Rc_refinedc.Lang.E.stats in
          Fmt.str "%s:ok:apps=%d:distinct=%d:evars=%d:side=%d/%d" r.name
            s.Stats.rule_apps (Stats.distinct_rules s) s.Stats.evar_insts
            s.Stats.side_auto s.Stats.side_manual
      | Error e -> Fmt.str "%s:error:%s" r.name (Rc_lithium.Report.to_string e))
    t.Driver.results
  @ List.map (fun fn -> fn ^ ":skipped") t.Driver.skipped

let check_equivalent ~mk_off ~mk_on path =
  let off = Driver.check_file ~session:(mk_off ()) path in
  let on = Driver.check_file ~session:(mk_on ()) path in
  Alcotest.(check (list string))
    "per-function outcomes" (signature off) (signature on);
  Alcotest.(check int) "exit code" (Driver.exit_code off)
    (Driver.exit_code on);
  Alcotest.(check string) "JSON report" (json off) (json on);
  Alcotest.(check bool)
    "diagnostics identical" true
    (List.equal
       (fun a b -> Rc_util.Diagnostic.compare a b = 0)
       off.Driver.diagnostics on.Driver.diagnostics)

let corpus_equiv_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          check_equivalent
            ~mk_off:(fun () -> studies_session ())
            ~mk_on:(fun () -> studies_session ~memo:true ())
            (Filename.concat case_dir file)))
    corpus_files

(* A sample of each stress-corpus family, checked from in-memory source
   so the test leaves no files behind. *)
let stress_sample =
  [
    ("diamonds.c", Corpus.diamond_chain ~k:6);
    ("call_chain.c", Corpus.call_chain ~n:6 ());
    ("struct_nest.c", Corpus.struct_nest ~depth:4);
    ("wide_exprs.c", Corpus.wide_exprs ~stmts:4 ~width:3);
    ("loop_farm.c", Corpus.loop_farm ~functions:3 ());
  ]

let stress_equiv_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          let off =
            Driver.check_source ~session:(plain_session ()) ~file:name src
          in
          let on =
            Driver.check_source
              ~session:(plain_session ~memo:true ())
              ~file:name src
          in
          Alcotest.(check (list string))
            "per-function outcomes" (signature off) (signature on);
          Alcotest.(check string) "JSON report" (json off) (json on);
          Alcotest.(check bool) "verifies" true (Driver.errors off = [])))
    stress_sample

(* The memo must actually fire where it should, and its asymptotic win
   shows as exact counts rather than a wall-clock curve: on the diamond
   chain every join is a hit (one per diamond), so the applications the
   engine actually performs grow by a constant step per two more
   diamonds, while the total work it accounts for — the same
   [rule_apps] as a memo-off run — grows about fourfold. *)
let test_memo_counters () =
  let counts k =
    let src = Corpus.diamond_chain ~k in
    let run memo =
      Driver.stats
        (Driver.check_source ~session:(plain_session ~memo ()) ~file:"d.c" src)
    in
    let off = run false and on = run true in
    Alcotest.(check int)
      (Fmt.str "k=%d: rule_apps independent of memo" k)
      off.Stats.rule_apps on.Stats.rule_apps;
    Alcotest.(check int) "no hits without memo" 0 off.Stats.memo_hits;
    Alcotest.(check int) (Fmt.str "k=%d: one hit per diamond" k) k
      on.Stats.memo_hits;
    (on.Stats.rule_apps, on.Stats.rule_apps - on.Stats.memo_saved_apps)
  in
  let apps, live = List.split (List.map counts [ 6; 8; 10 ]) in
  Alcotest.(check (list int)) "rule_apps" [ 1964; 7916; 31724 ] apps;
  Alcotest.(check (list int)) "live applications" [ 155; 203; 251 ] live

(* ------------------------------------------------------------------ *)
(* Parallel determinism with memoization enabled                       *)
(* ------------------------------------------------------------------ *)

(* The memo table lives in the per-check engine state, so [-j 4] workers
   never share one; the report must stay byte-identical to [-j 1]. *)
let parallel_memo_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          if not Rc_util.Supervisor.parallelism_available then Alcotest.skip ();
          let path = Filename.concat case_dir file in
          let seq =
            Driver.check_file ~session:(studies_session ~memo:true ()) ~jobs:1
              path
          in
          let par =
            Driver.check_file ~session:(studies_session ~memo:true ()) ~jobs:4
              path
          in
          Alcotest.(check string) "JSON output" (json seq) (json par);
          Alcotest.(check int) "exit code" (Driver.exit_code seq)
            (Driver.exit_code par)))
    [ "hashmap.c"; "bst_layered.c"; "talloc.c" ]

(* ------------------------------------------------------------------ *)
(* Profile-guided dispatch                                             *)
(* ------------------------------------------------------------------ *)

(* An adversarial profile — every observed rule weighted by the
   *inverse* of its real hit count — maximally perturbs the
   equal-priority tie order, yet verdicts and reports must not move
   (ties are only reorderable because their guards are disjoint). *)
let test_pgo_equivalence () =
  let path = Filename.concat case_dir "hashmap.c" in
  let base = Driver.check_file ~session:(studies_session ()) path in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Driver.check_result) ->
      match r.outcome with
      | Ok res ->
          Hashtbl.iter
            (fun name n ->
              Hashtbl.replace counts name
                (n + Option.value ~default:0 (Hashtbl.find_opt counts name)))
            res.Rc_refinedc.Lang.E.stats.Stats.rules_used
      | Error _ -> ())
    base.Driver.results;
  let most = Hashtbl.fold (fun _ n acc -> max n acc) counts 0 in
  let profile =
    Hashtbl.fold (fun name n acc -> (name, 1 + most - n) :: acc) counts []
    |> List.sort compare
  in
  Alcotest.(check bool) "profile is non-trivial" true (List.length profile > 5);
  let pgo_session () =
    let s = Rc_studies.Studies.session () in
    Session.create ~registry:s.Session.registry ~gs:s.Session.gs
      ~tenv:(Rc_refinedc.Rtype.create_tenv ())
      ~profile ()
  in
  (* the sessions differ where they should: the reordered index has a
     different fingerprint, so profiled runs never share cache entries *)
  Alcotest.(check bool)
    "index fingerprint moved" true
    (Rc_refinedc.Rules.fingerprint (studies_session ()).Session.index
    <> Rc_refinedc.Rules.fingerprint (pgo_session ()).Session.index);
  (* ... but not where they must not: same verdicts, stats, report *)
  let studies_pgo () =
    let s = Rc_studies.Studies.session () in
    {
      s with
      Session.index =
        Rc_refinedc.Rules.make ~extra:s.Session.extra_rules ~profile ();
    }
  in
  check_equivalent
    ~mk_off:(fun () -> studies_session ())
    ~mk_on:(fun () -> studies_pgo ())
    path

(* An empty profile must be the identity: same fingerprint, so cached
   verdicts from unprofiled runs stay valid. *)
let test_pgo_empty_profile () =
  Alcotest.(check string)
    "empty profile preserves fingerprint"
    (Rc_refinedc.Rules.fingerprint (Rc_refinedc.Rules.make ()))
    (Rc_refinedc.Rules.fingerprint (Rc_refinedc.Rules.make ~profile:[] ()))

let () =
  Alcotest.run "memo"
    [
      ( "intern",
        [
          Alcotest.test_case "round-trip" `Quick test_intern_roundtrip;
          Alcotest.test_case "bounds" `Quick test_intern_bounds;
        ] );
      ("corpus memo-on = memo-off", corpus_equiv_tests);
      ("stress memo-on = memo-off", stress_equiv_tests);
      ( "memo counters",
        [ Alcotest.test_case "diamond chain" `Quick test_memo_counters ] );
      ("parallel determinism (memo on)", parallel_memo_tests);
      ( "profile-guided dispatch",
        [
          Alcotest.test_case "adversarial profile" `Quick test_pgo_equivalence;
          Alcotest.test_case "empty profile" `Quick test_pgo_empty_profile;
        ] );
    ]
