(* The evaluation harness: regenerates the paper's Figure 7 for this
   reproduction — one row per case study, with the same columns:

     Rules (distinct/applications), ∃ (evars auto-instantiated),
     ⌜φ⌝ (side conditions auto/manual), Impl, Spec,
     Annot (data-structure / loop / other), Pure, Ovh

   plus verification wall-clock time (Bechamel; the paper claims
   "efficient goal-directed proof search" without tabulating it) and
   ablations of the design decisions DESIGN.md §5 calls out: evar
   goal-simplification off, named solvers/lemmas off, and the
   layered-vs-direct BST comparison.

   Run with:  dune exec bench/main.exe -- [--time] [--ablations] [--all]

   With no flag it prints the table, the timing and the ablations.
   Performance is measured by the repository benchmark in perfbench/
   (see perfbench/README.md), not here. *)

module Driver = Rc_frontend.Driver
module Stats = Rc_lithium.Stats
module Api = Rc_session.Refinedc_api

(* Each checked file gets a fresh case-study session: elaboration adds
   the file's C-declared named types to the session's own type
   environment, so sessions must not be shared between files. *)
let studies_session ?default_only ?no_goal_simp () =
  Api.create_session ~case_studies:true ?default_only ?no_goal_simp ()

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let read path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* The Figure 7 corpus                                                 *)
(* ------------------------------------------------------------------ *)

type study = {
  cls : string;  (** paper class, #1–#6 *)
  name : string;  (** paper row name *)
  file : string;
  pure_lemmas : int;  (** registered manual lemmas (the Pure column) *)
}

let corpus =
  [
    { cls = "#1"; name = "Singly linked list"; file = "linked_list.c"; pure_lemmas = 0 };
    { cls = "#1"; name = "Queue"; file = "queue.c"; pure_lemmas = 0 };
    { cls = "#1"; name = "Binary search"; file = "binary_search.c"; pure_lemmas = 0 };
    { cls = "#2"; name = "Thread-safe allocator"; file = "talloc.c"; pure_lemmas = 0 };
    { cls = "#2"; name = "Page allocator"; file = "page_alloc.c"; pure_lemmas = 0 };
    { cls = "#3"; name = "Bin. search tree (layered)"; file = "bst_layered.c"; pure_lemmas = 6 };
    { cls = "#3"; name = "Bin. search tree (direct)"; file = "bst_direct.c"; pure_lemmas = 0 };
    { cls = "#4"; name = "Linear probing hashmap"; file = "hashmap.c"; pure_lemmas = 5 };
    { cls = "#5"; name = "Hafnium-style mpool"; file = "mpool.c"; pure_lemmas = 0 };
    { cls = "#6"; name = "Spinlock"; file = "spinlock.c"; pure_lemmas = 0 };
    { cls = "#6"; name = "One-time barrier"; file = "barrier.c"; pure_lemmas = 0 };
  ]

(* ------------------------------------------------------------------ *)
(* Line counting (tokei-style, specialized to our annotations)         *)
(* ------------------------------------------------------------------ *)

type loc_counts = {
  impl : int;
  spec : int;
  annot_ds : int;
  annot_loop : int;
  annot_other : int;
}

let count_lines (src : string) : loc_counts =
  let lines = String.split_on_char '\n' src in
  let impl = ref 0 and spec = ref 0 in
  let ds = ref 0 and lp = ref 0 and other = ref 0 in
  let brace_depth = ref 0 in
  let in_struct = ref false in
  let in_annot = ref false in
  let annot_kind = ref `Other in
  List.iter
    (fun line ->
      let l = String.trim line in
      let has s = Rc_util.Xstring.contains_sub l ~sub:s in
      let is_annot_start = has "[[rc::" in
      let annot_line = is_annot_start || !in_annot in
      if is_annot_start then
        annot_kind :=
          if
            has "rc::refined_by" || has "rc::field" || has "rc::ptr_type"
            || has "rc::size" || !in_struct
          then `Ds
          else if
            !brace_depth > 0
            && (has "rc::inv_vars" || has "rc::exists" || has "rc::constraints")
          then `Loop
          else if has "rc::tactics" then `Other
          else if
            has "rc::parameters" || has "rc::args" || has "rc::returns"
            || has "rc::requires" || has "rc::ensures" || has "rc::exists"
            || has "rc::constraints"
          then `Spec
          else `Other;
      if annot_line then begin
        (match !annot_kind with
        | `Ds -> incr ds
        | `Loop -> incr lp
        | `Spec -> incr spec
        | `Other -> incr other);
        in_annot := not (has "]]")
      end
      else if l = "" || (String.length l >= 2 && String.sub l 0 2 = "//") then
        ()
      else begin
        incr impl;
        let starts p = Rc_util.Xstring.starts_with ~prefix:p l in
        if (starts "struct" || starts "typedef struct") && not (has "(") then
          in_struct := true;
        if !in_struct && (starts "}" || has "};" || has "}*") then
          in_struct := false;
        String.iter
          (fun c ->
            if c = '{' then incr brace_depth
            else if c = '}' then decr brace_depth)
          l
      end)
    lines;
  { impl = !impl; spec = !spec; annot_ds = !ds; annot_loop = !lp;
    annot_other = !other }

(* ------------------------------------------------------------------ *)
(* Per-study verification + measurement                                *)
(* ------------------------------------------------------------------ *)

type row = {
  study : study;
  stats : Stats.t;
  locs : loc_counts;
  ok : bool;
  note : string option;  (** why the row failed, when it did *)
}

(* A failing study produces a FAILED row instead of aborting the whole
   table: the harness reports per-row outcomes for the full corpus. *)
let check_study (s : study) : row =
  let path = Filename.concat case_dir s.file in
  let locs =
    try count_lines (read path)
    with _ ->
      { impl = 0; spec = 0; annot_ds = 0; annot_loop = 0; annot_other = 0 }
  in
  match Driver.check_file ~session:(studies_session ()) path with
  | t ->
      let note =
        match Driver.errors t with
        | [] -> None
        | (fn, e) :: _ ->
            Some (Fmt.str "%s: %s" fn (Rc_lithium.Report.kind_label e.kind))
      in
      {
        study = s;
        stats = Driver.stats t;
        locs;
        ok = Driver.errors t = [];
        note;
      }
  | exception Driver.Frontend_error msg ->
      { study = s; stats = Stats.create (); locs; ok = false;
        note = Some ("frontend: " ^ msg) }
  | exception e ->
      { study = s; stats = Stats.create (); locs; ok = false;
        note = Some ("crash: " ^ Printexc.to_string e) }

let print_table (rows : row list) =
  Fmt.pr "@.%-5s %-27s %-9s %4s %9s %5s %5s %-14s %4s %6s@." "Class" "Test"
    "Rules" "E?" "Side" "Impl" "Spec" "Annot(ds/lp/ot)" "Pure" "Ovh";
  Fmt.pr "%s@." (String.make 104 '-');
  List.iter
    (fun r ->
      let s = r.stats in
      let annot = r.locs.annot_ds + r.locs.annot_loop + r.locs.annot_other in
      let ovh =
        float_of_int (annot + r.study.pure_lemmas)
        /. float_of_int (max r.locs.impl 1)
      in
      Fmt.pr
        "%-5s %-27s %3d/%-5d %4d %5d/%-3d %5d %5d %4d (%d/%d/%d)    %4d %6.2f%s@."
        r.study.cls r.study.name (Stats.distinct_rules s) s.Stats.rule_apps
        s.Stats.evar_insts s.Stats.side_auto s.Stats.side_manual r.locs.impl
        r.locs.spec annot r.locs.annot_ds r.locs.annot_loop
        r.locs.annot_other r.study.pure_lemmas ovh
        (match (r.ok, r.note) with
        | true, _ -> ""
        | false, Some n -> "  *** FAILED: " ^ n
        | false, None -> "  *** FAILED"))
    rows;
  Fmt.pr "%s@." (String.make 104 '-');
  Fmt.pr
    "Rules: distinct/applications.  E?: evars auto-instantiated.  Side: side \
     conditions auto/manual.@.";
  Fmt.pr
    "Pure: registered manual lemmas (stand-in for manual Coq proofs).  Ovh = \
     (Annot+Pure)/Impl.@.";
  let s = studies_session () in
  Fmt.pr "Standard library: %d typing rules, %d named types registered.@."
    (Rc_refinedc.Rules.count s.Rc_refinedc.Session.index)
    (Hashtbl.length s.Rc_refinedc.Session.tenv)

(* ------------------------------------------------------------------ *)
(* Timing (Bechamel)                                                   *)
(* ------------------------------------------------------------------ *)

let time_studies (rows : row list) =
  (* only time rows that verify; a failing study would abort the loop *)
  let rows = List.filter (fun r -> r.ok) rows in
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"verify"
      (List.map
         (fun r ->
           let path = Filename.concat case_dir r.study.file in
           let src = read path in
           Test.make ~name:r.study.file
             (Staged.stage (fun () ->
                  ignore
                    (Driver.check_source ~session:(studies_session ())
                       ~file:path src))))
         rows)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Fmt.pr "@.Verification time per case study (Bechamel, monotonic clock):@.";
  let entries = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> entries := (name, est /. 1e6) :: !entries
      | _ -> ())
    results;
  List.iter
    (fun (name, ms) -> Fmt.pr "  %-30s %10.3f ms/run@." name ms)
    (List.sort compare !entries)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations (rows : row list) =
  Fmt.pr "@.== Ablations (design decisions of DESIGN.md par.5) ==@.";
  (* each ablation is just a differently-configured session — no global
     switches to flip and restore *)
  let run_with mk_session desc =
    Fmt.pr "@.%s:@." desc;
    List.iter
      (fun r ->
        let path = Filename.concat case_dir r.study.file in
        match Driver.check_file ~session:(mk_session ()) path with
        | t ->
            let errs = Driver.errors t in
            if errs = [] then Fmt.pr "  %-20s still verifies@." r.study.file
            else
              Fmt.pr "  %-20s FAILS (%s)@." r.study.file
                (String.concat ", " (List.map fst errs))
        | exception _ -> Fmt.pr "  %-20s FAILS (frontend)@." r.study.file)
      rows
  in
  run_with
    (fun () -> studies_session ~no_goal_simp:true ())
    "(a) evar goal-simplification rules disabled (heuristic 2 of paper par.5)";
  run_with
    (fun () -> studies_session ~default_only:true ())
    "(b) named solvers and manual lemmas disabled (default solver only)";
  Fmt.pr "@.(c) layered vs direct BST (the paper's #3 comparison):@.";
  let get file = List.find (fun r -> r.study.file = file) rows in
  let lay = get "bst_layered.c" and dir = get "bst_direct.c" in
  Fmt.pr
    "  layered: %d manual lemmas, %d manual side conditions;  direct: %d \
     lemmas, %d manual side conditions@."
    lay.study.pure_lemmas lay.stats.Stats.side_manual dir.study.pure_lemmas
    dir.stats.Stats.side_manual;
  Fmt.pr
    "  (as the paper found, the intermediate functional layer costs extra \
     pure reasoning)@."

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  Fmt.pr "Reproducing Figure 7 (paper: RefinedC, PLDI 2021)@.";
  let rows = List.map check_study corpus in
  print_table rows;
  let all = List.mem "--all" args in
  if List.mem "--time" args || all || args = [ Sys.argv.(0) ] then
    time_studies rows;
  if List.mem "--ablations" args || all || args = [ Sys.argv.(0) ] then
    ablations rows;
  if List.for_all (fun r -> r.ok) rows then
    Fmt.pr "@.All %d case studies verified.@." (List.length rows)
  else begin
    Fmt.pr "@.SOME CASE STUDIES FAILED@.";
    exit 1
  end
