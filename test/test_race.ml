(* Differential validation of the static concurrency analysis
   (RC-L030..RC-L032, lib/analysis/locksum.ml) against the dynamic
   vector-clock race monitor (lib/caesium/eval.ml):

   - the three concurrent case studies lint race-clean AND stay
     race-free under hundreds of seeded two-thread schedules;
   - seeded-race mutants (lock call removed, access hoisted above the
     acquire) draw a dynamic Data_race — and every function the monitor
     catches must already carry a static RC-L030 (the soundness
     direction of the Eraser criterion: the lockset analysis
     over-approximates, so a dynamically observable race with an empty
     report list is a bug in the analysis);
   - the lock_farm corpus family behaves the same at generator scale;
   - dedicated fixtures pin RC-L031 (release balance) and RC-L032
     (lock order).

   The schedule budget defaults to 200 seeds and is split across the
   differential cases; CI's race-smoke job shrinks it via RC_RACE_SEEDS. *)

module Value = Rc_caesium.Value
module Int_type = Rc_caesium.Int_type
module Eval = Rc_caesium.Eval
module Heap = Rc_caesium.Heap
module Ub = Rc_caesium.Ub
module Elab = Rc_frontend.Elab
module Driver = Rc_frontend.Driver
module Diagnostic = Rc_util.Diagnostic
module Api = Rc_session.Refinedc_api
module Corpus = Rc_benchgen.Corpus

let session () = Api.create_session ~case_studies:true ()

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let read name =
  In_channel.with_open_bin (Filename.concat case_dir name)
    In_channel.input_all

let seed_budget =
  match Sys.getenv_opt "RC_RACE_SEEDS" with
  | Some s -> ( try max 8 (int_of_string s) with Failure _ -> 200)
  | None -> 200

(* the per-case slices of the budget; at the default 200 they sum to the
   full differential sweep the acceptance criteria ask for *)
let slice frac = max 2 (seed_budget * frac / 100)

let elab ~file src =
  let session = session () in
  Driver.parse_and_elab ~session ~file src

let lint ~file src =
  let session = session () in
  let elaborated = Driver.parse_and_elab ~session ~file src in
  Driver.lint_elaborated ~session ~file elaborated

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let race_in fname ds =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.code = "RC-L030" && contains d.message ("in " ^ fname ^ ":"))
    ds

let codes_of ds = List.map (fun (d : Diagnostic.t) -> d.code) ds

let no_race_codes ds =
  List.filter
    (fun (d : Diagnostic.t) ->
      d.code = "RC-L030" || d.code = "RC-L031" || d.code = "RC-L032")
    ds

(* ---------------------------------------------------------------- *)
(* Dynamic side: two threads of [fname(lock, counter)] under seeded  *)
(* random schedules, vector-clock monitor armed                      *)
(* ---------------------------------------------------------------- *)

(* Returns the seeds on which the monitor flagged a data race.  Both
   slots are zero-initialized 4-byte cells, matching the struct lock /
   int counter signatures every fixture here uses. *)
let race_hunt (prog : Rc_caesium.Syntax.program) fname seeds : int list =
  List.filter
    (fun seed ->
      let m = Eval.create ~detect_races:true prog in
      let heap = m.Eval.heap in
      let lock = Heap.alloc heap 4 in
      let counter = Heap.alloc heap 4 in
      Heap.store heap lock (Value.of_int Int_type.i32 0);
      Heap.store heap counter (Value.of_int Int_type.i32 0);
      let mk tid =
        let th =
          { Eval.tid; frames = []; finished = false; result = None;
            clock = Eval.Vc.create 2 }
        in
        th.clock.(tid) <- 1;
        th
      in
      let t0 = mk 0 and t1 = mk 1 in
      m.Eval.threads <- [ t0; t1 ];
      let args = [ Value.of_loc lock; Value.of_loc counter ] in
      try
        Eval.push_call m t0 fname args None;
        Eval.push_call m t1 fname args None;
        let rng = Random.State.make [| seed |] in
        let rec loop fuel =
          if fuel = 0 then ()
          else
            let runnable =
              List.filter (fun th -> not th.Eval.finished) m.Eval.threads
            in
            match runnable with
            | [] -> ()
            | ths -> (
                let th =
                  List.nth ths (Random.State.int rng (List.length ths))
                in
                match Eval.step m th with
                | () -> loop (fuel - 1)
                | exception Eval.Thread_done -> loop (fuel - 1))
        in
        loop 50_000;
        false
      with
      | Ub.Undef (Ub.Data_race _) -> true
      | Ub.Undef _ -> false)
    seeds

let seeds n = List.init n (fun i -> i + 1)

(* ---------------------------------------------------------------- *)
(* The three concurrent studies: race-clean, statically and           *)
(* dynamically                                                        *)
(* ---------------------------------------------------------------- *)

let study_tests =
  List.map
    (fun file ->
      Alcotest.test_case (file ^ " lints race-clean") `Quick (fun () ->
          let ds = lint ~file (read file) in
          Alcotest.(check (list string))
            "no RC-L03x" []
            (codes_of (no_race_codes ds))))
    [ "spinlock.c"; "barrier.c"; "mpool.c" ]

(* ---------------------------------------------------------------- *)
(* Differential: base spinlock critical section vs. seeded mutants    *)
(* ---------------------------------------------------------------- *)

(* String-edit mutants of the real spinlock.c.  The edited line appears
   only inside locked_reset (the definition of spin_lock does not
   contain a call to itself), so the lock protocol functions stay
   intact and only the critical section loses its discipline. *)
let base_src () = read "spinlock.c"

let lock_removed_src () =
  let src = base_src () in
  let edited =
    Str.replace_first (Str.regexp_string "  spin_lock(l);\n") "" src
  in
  Alcotest.(check bool) "mutant edit applied" true (edited <> src);
  edited

let hoisted_src () =
  let src = base_src () in
  let edited =
    Str.replace_first
      (Str.regexp_string "  spin_lock(l);\n  *counter = 0;\n")
      "  *counter = 0;\n  spin_lock(l);\n" src
  in
  Alcotest.(check bool) "mutant edit applied" true (edited <> src);
  edited

let differential_tests =
  [
    Alcotest.test_case "verified critical section is race-free" `Slow
      (fun () ->
        let src = base_src () in
        let el = elab ~file:"spinlock.c" src in
        let racy_seeds =
          race_hunt el.Elab.program "locked_reset" (seeds (slice 40))
        in
        Alcotest.(check (list int)) "no dynamic race" [] racy_seeds;
        let ds = lint ~file:"spinlock.c" src in
        Alcotest.(check bool)
          "no static RC-L030 either" false
          (race_in "locked_reset" ds));
    Alcotest.test_case "lock-removed mutant: dynamic race ⇒ RC-L030" `Slow
      (fun () ->
        let src = lock_removed_src () in
        let el = elab ~file:"spinlock_nolock.c" src in
        let racy_seeds =
          race_hunt el.Elab.program "locked_reset" (seeds (slice 20))
        in
        Alcotest.(check bool)
          "monitor observes the race" true (racy_seeds <> []);
        (* the soundness direction: dynamically caught ⇒ statically
           reported *)
        let ds = lint ~file:"spinlock_nolock.c" src in
        Alcotest.(check bool)
          "static analysis covers it" true
          (race_in "locked_reset" ds));
    Alcotest.test_case "hoisted-access mutant: dynamic race ⇒ RC-L030" `Slow
      (fun () ->
        let src = hoisted_src () in
        let el = elab ~file:"spinlock_hoist.c" src in
        let racy_seeds =
          race_hunt el.Elab.program "locked_reset" (seeds (slice 20))
        in
        Alcotest.(check bool)
          "monitor observes the race" true (racy_seeds <> []);
        let ds = lint ~file:"spinlock_hoist.c" src in
        Alcotest.(check bool)
          "static analysis covers it" true
          (race_in "locked_reset" ds));
  ]

(* ---------------------------------------------------------------- *)
(* The lock_farm corpus family                                        *)
(* ---------------------------------------------------------------- *)

let lock_farm_tests =
  [
    Alcotest.test_case "clean farm verifies and lints race-clean" `Slow
      (fun () ->
        let src = Corpus.lock_farm ~functions:3 () in
        let t =
          Driver.check_source ~session:(session ()) ~file:"lock_farm.c" src
        in
        (match Driver.errors t with
        | [] -> ()
        | (fn, e) :: _ ->
            Alcotest.failf "%s failed:@.%s" fn (Rc_lithium.Report.to_string e));
        let ds = lint ~file:"lock_farm.c" src in
        Alcotest.(check (list string))
          "no RC-L03x" []
          (codes_of (no_race_codes ds)));
    Alcotest.test_case "seeded farm: every racy fn drawn, no crit fn" `Slow
      (fun () ->
        let src = Corpus.lock_farm ~functions:2 ~racy:2 ~hoisted:1 () in
        let ds = lint ~file:"lock_farm_racy.c" src in
        List.iter
          (fun f ->
            Alcotest.(check bool) (f ^ " flagged") true (race_in f ds))
          [ "racy0"; "racy1"; "hoist0" ];
        List.iter
          (fun f ->
            Alcotest.(check bool) (f ^ " clean") false (race_in f ds))
          [ "crit0"; "crit1"; "spin_lock"; "spin_unlock" ]);
    Alcotest.test_case "seeded farm: dynamic races covered statically" `Slow
      (fun () ->
        let src = Corpus.lock_farm ~functions:1 ~racy:1 () in
        let el = elab ~file:"lock_farm_dyn.c" src in
        let ds = lint ~file:"lock_farm_dyn.c" src in
        (* crit0 under the lock: no race, dynamically or statically *)
        Alcotest.(check (list int))
          "crit0 race-free" []
          (race_hunt el.Elab.program "crit0" (seeds (slice 10)));
        Alcotest.(check bool) "crit0 clean" false (race_in "crit0" ds);
        (* racy0: the monitor finds it, and RC-L030 already covers it *)
        let racy_seeds =
          race_hunt el.Elab.program "racy0" (seeds (slice 10))
        in
        Alcotest.(check bool)
          "racy0 observed dynamically" true (racy_seeds <> []);
        Alcotest.(check bool) "racy0 covered" true (race_in "racy0" ds));
  ]

(* ---------------------------------------------------------------- *)
(* RC-L031 / RC-L032 fixtures                                         *)
(* ---------------------------------------------------------------- *)

let lock_proto =
  {|
struct lock { int locked; };

void spin_lock(struct lock* l) {
  int expected = 0;
  while (1) {
    expected = 0;
    int ok = atomic_compare_exchange_strong(&l->locked, &expected, 1);
    if (ok)
      return;
  }
}

void spin_unlock(struct lock* l) {
  atomic_store(&l->locked, 0);
}
|}

let leak_src =
  lock_proto
  ^ {|
void leak(struct lock* l, int* counter, int n) {
  spin_lock(l);
  *counter = n;
  if (n > 0) {
    spin_unlock(l);
  }
}
|}

let order_src =
  lock_proto
  ^ {|
void ab(struct lock* a, struct lock* b, int* counter) {
  spin_lock(a);
  spin_lock(b);
  *counter = 1;
  spin_unlock(b);
  spin_unlock(a);
}

void ba(struct lock* a, struct lock* b, int* counter) {
  spin_lock(b);
  spin_lock(a);
  *counter = 2;
  spin_unlock(a);
  spin_unlock(b);
}
|}

let fixture_tests =
  [
    Alcotest.test_case "RC-L031: conditional release flagged" `Quick
      (fun () ->
        let ds = lint ~file:"leak.c" leak_src in
        Alcotest.(check bool)
          "RC-L031 present" true
          (List.exists (fun (d : Diagnostic.t) -> d.code = "RC-L031") ds);
        (* the hand-off in spin_lock itself must NOT be flagged: it
           returns with the lock held on every path *)
        Alcotest.(check bool)
          "spin_lock hand-off clean" false
          (List.exists
             (fun (d : Diagnostic.t) ->
               d.code = "RC-L031" && contains d.message "in spin_lock")
             ds));
    Alcotest.test_case "RC-L032: opposite acquisition orders flagged" `Quick
      (fun () ->
        let ds = lint ~file:"order.c" order_src in
        Alcotest.(check bool)
          "RC-L032 present" true
          (List.exists (fun (d : Diagnostic.t) -> d.code = "RC-L032") ds));
    Alcotest.test_case "consistent order is not flagged" `Quick (fun () ->
        let consistent =
          lock_proto
          ^ {|
void ab1(struct lock* a, struct lock* b, int* counter) {
  spin_lock(a);
  spin_lock(b);
  *counter = 1;
  spin_unlock(b);
  spin_unlock(a);
}

void ab2(struct lock* a, struct lock* b, int* counter) {
  spin_lock(a);
  spin_lock(b);
  *counter = 2;
  spin_unlock(b);
  spin_unlock(a);
}
|}
        in
        let ds = lint ~file:"order_ok.c" consistent in
        Alcotest.(check bool)
          "no RC-L032" false
          (List.exists (fun (d : Diagnostic.t) -> d.code = "RC-L032") ds));
    Alcotest.test_case "sequential unit: concurrency passes are silent"
      `Quick (fun () ->
        (* no atomic op anywhere: shared-looking accesses draw nothing *)
        let ds =
          lint ~file:"seq.c"
            {|
void bump(int* counter) {
  *counter = *counter + 1;
}
|}
        in
        Alcotest.(check (list string))
          "no RC-L03x" []
          (codes_of (no_race_codes ds)));
  ]

(* ---------------------------------------------------------------- *)
(* One lockset sweep per lint run: selecting passes one at a time,   *)
(* all at once, or handing in the dependency graph are equivalent    *)
(* ---------------------------------------------------------------- *)

module Lint = Rc_analysis.Lint

let lint_run ?graph ~passes ~file (el : Elab.elaborated) =
  let session =
    Rc_refinedc.Session.with_lint (session ())
      { Rc_refinedc.Session.l_enabled = true; l_passes = passes;
        l_werror = false }
  in
  Lint.run ?graph ~metas:el.Elab.metas ~session ~file
    ~funcs:el.Elab.program.Rc_caesium.Syntax.funcs
    ~to_check:el.Elab.to_check ()

(* (file, source, the RC-L03x codes the input must draw) *)
let equivalence_inputs () =
  [
    ("spinlock.c", base_src (), []);
    ("barrier.c", read "barrier.c", []);
    ("mpool.c", read "mpool.c", []);
    ("spinlock_nolock.c", lock_removed_src (), [ "RC-L030" ]);
    ("spinlock_hoisted.c", hoisted_src (), [ "RC-L030" ]);
    ("leak.c", leak_src, [ "RC-L031" ]);
    ("order.c", order_src, [ "RC-L032" ]);
  ]

let equivalence_tests =
  [
    Alcotest.test_case "all passes = union of single passes = with graph"
      `Quick (fun () ->
        List.iter
          (fun (file, src, expect) ->
            let el = elab ~file src in
            let strs = List.map Diagnostic.to_string in
            let all = lint_run ~passes:None ~file el in
            let singles =
              List.concat_map
                (fun p -> lint_run ~passes:(Some [ p ]) ~file el)
                Lint.pass_names
            in
            let graphed =
              lint_run
                ~graph:(Rc_refinedc.Depgraph.build el.Elab.to_check)
                ~passes:None ~file el
            in
            Alcotest.(check (list string))
              (file ^ ": all = single passes") (strs all)
              (strs (Diagnostic.sort singles));
            Alcotest.(check (list string))
              (file ^ ": all = with graph") (strs all) (strs graphed);
            List.iter
              (fun code ->
                Alcotest.(check bool)
                  (file ^ ": " ^ code ^ " drawn") true
                  (List.mem code (codes_of all)))
              expect)
          (equivalence_inputs ()));
  ]

let () =
  Alcotest.run "race"
    [
      ("studies", study_tests);
      ("differential", differential_tests);
      ("lock_farm", lock_farm_tests);
      ("fixtures", fixture_tests);
      ("equivalence", equivalence_tests);
    ]
