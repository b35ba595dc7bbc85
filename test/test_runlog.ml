(* The persistent run ledger and its query layer.

   Contracts under test:
   - the JSON reader round-trips everything the printer emits (the
     toolchain is now a reader of its own records);
   - appends are atomic at the line level: concurrent appenders — one
     ledger handle per domain, as with concurrent CLI invocations —
     interleave whole lines, never fragments;
   - the reader skips corrupt lines instead of aborting, and counts
     them for diagnostics;
   - an unusable directory degrades to a disabled ledger (never an
     abort);
   - the trailing-window median-of-ratios regression check flags real
     slowdowns and tolerates a noisy baseline;
   - [Driver.runlog_record] carries the fields [refinedc stats] reads. *)

module J = Rc_util.Jsonout
module Runlog = Rc_util.Runlog

let json = Alcotest.testable (Fmt.of_to_string J.to_string) ( = )

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse failed on %s: %s" s msg

let sample_record i =
  J.Obj
    [
      ("schema", J.Str Runlog.schema_version);
      ("kind", J.Str "check");
      ("seq", J.Int i);
      ("wall_s", J.Float (0.25 +. (0.01 *. float_of_int i)));
      ("nested", J.Obj [ ("xs", J.List [ J.Int 1; J.Null; J.Bool true ]) ]);
      ("label", J.Str "quote\" slash\\ tab\tnewline\n");
    ]

let parser_tests =
  [
    Alcotest.test_case "parse round-trips printer output" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.check json "to_string round-trip" v
              (parse_ok (J.to_string v));
            Alcotest.check json "to_line round-trip" v
              (parse_ok (J.to_line v)))
          [
            J.Null;
            J.Bool false;
            J.Int (-42);
            J.Str "päivää \x01 ok";
            J.List [];
            J.Obj [];
            sample_record 7;
          ]);
    Alcotest.test_case "to_line never wraps" `Quick (fun () ->
        let wide =
          J.Obj
            (List.init 64 (fun i ->
                 (Printf.sprintf "field_%02d" i, sample_record i)))
        in
        Alcotest.(check bool)
          "single line" false
          (String.contains (J.to_line wide) '\n'));
    Alcotest.test_case "parse rejects garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) ("rejects " ^ s) true
              (Result.is_error (J.parse s)))
          [ "{"; "[1,"; "tru"; "\"unterminated"; "{} trailing"; "" ]);
    Alcotest.test_case "numbers split int/float like the printer" `Quick
      (fun () ->
        Alcotest.check json "int" (J.Int 5) (parse_ok "5");
        Alcotest.check json "float" (J.Float 5.5) (parse_ok "5.5");
        Alcotest.check json "exponent is float" (J.Float 1e3) (parse_ok "1e3"));
  ]

let ledger_tests =
  [
    Alcotest.test_case "append/load preserves order" `Quick (fun () ->
        let lg = Runlog.create (Testutil.scratch_dir "runlog") in
        List.iter (fun i -> Runlog.append lg (sample_record i)) [ 1; 2; 3 ];
        let seqs =
          List.filter_map
            (fun r -> Option.bind (J.member "seq" r) J.to_int)
            (Runlog.load lg)
        in
        Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] seqs);
    Alcotest.test_case "corrupt lines are skipped and counted" `Quick
      (fun () ->
        let lg = Runlog.create (Testutil.scratch_dir "runlog") in
        Runlog.append lg (sample_record 1);
        Out_channel.with_open_gen
          [ Open_append; Open_creat ] 0o644 (Runlog.path lg)
          (fun oc -> Out_channel.output_string oc "{torn writ\n");
        Runlog.append lg (sample_record 2);
        Alcotest.(check int) "records" 2 (List.length (Runlog.load lg));
        Alcotest.(check int) "corrupt" 1 (Runlog.corrupt_lines lg));
    Alcotest.test_case "unusable directory degrades to disabled" `Quick
      (fun () ->
        let file = Filename.temp_file "rc-runlog-notadir" "" in
        let lg = Runlog.create file in
        Alcotest.(check bool) "disabled" true (Runlog.disabled lg);
        Runlog.append lg (sample_record 1);
        Alcotest.(check int) "load empty" 0 (List.length (Runlog.load lg));
        Sys.remove file);
    Alcotest.test_case "concurrent appenders interleave whole lines" `Quick
      (fun () ->
        let dir = Testutil.scratch_dir "runlog" in
        let per_worker = 25 and workers = 4 in
        let work w () =
          (* one handle per appender, as with concurrent CLI runs *)
          let lg = Runlog.create dir in
          for i = 1 to per_worker do
            Runlog.append lg (sample_record ((w * 1000) + i))
          done
        in
        if Rc_util.Supervisor.parallelism_available then
          List.init workers (fun w -> Domain.spawn (work w))
          |> List.iter Domain.join
        else List.init workers work |> List.iteri (fun _ f -> f ());
        let lg = Runlog.create dir in
        Alcotest.(check int)
          "no torn lines" 0 (Runlog.corrupt_lines lg);
        Alcotest.(check int)
          "every record present" (workers * per_worker)
          (List.length (Runlog.load lg)));
  ]

let regression_tests =
  let reg ?window ?threshold series =
    Runlog.regression ?window ?threshold series
  in
  [
    Alcotest.test_case "flat series does not regress" `Quick (fun () ->
        match reg [ 100.; 101.; 99.; 100.; 100. ] with
        | Some g ->
            Alcotest.(check bool) "not regressed" false g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "a real slowdown is flagged" `Quick (fun () ->
        match reg [ 100.; 101.; 99.; 100.; 20. ] with
        | Some g ->
            Alcotest.(check bool) "regressed" true g.Runlog.r_regressed;
            Alcotest.(check int) "window" 4 g.Runlog.r_window
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "one noisy baseline run does not mask" `Quick
      (fun () ->
        (* median-of-ratios: a single absurdly slow baseline point must
           not excuse a 5x slowdown *)
        match reg [ 100.; 5.; 100.; 100.; 20. ] with
        | Some g ->
            Alcotest.(check bool) "regressed" true g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "speedups never flag" `Quick (fun () ->
        match reg [ 100.; 100.; 300. ] with
        | Some g ->
            Alcotest.(check bool) "not regressed" false g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "short or empty series yield no verdict" `Quick
      (fun () ->
        Alcotest.(check bool) "empty" true (reg [] = None);
        Alcotest.(check bool) "singleton" true (reg [ 100. ] = None);
        (* non-positive points (absent data) are ignored, not ratios *)
        Alcotest.(check bool) "zeros only" true (reg [ 0.; 0. ] = None));
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let xs = [ 1.; 2.; 3.; 4. ] in
        Alcotest.(check (option (float 1e-9)))
          "median" (Some 2.5) (Runlog.median xs);
        Alcotest.(check (option (float 1e-9)))
          "p95" (Some 3.85)
          (Runlog.percentile 0.95 xs);
        Alcotest.(check (option (float 1e-9)))
          "empty" None (Runlog.median []));
  ]

(* The driver-level record: the fields [refinedc stats] trends on must
   be present and consistent with the run. *)
let record_tests =
  [
    Alcotest.test_case "runlog_record carries the stats surface" `Quick
      (fun () ->
        let module Driver = Rc_frontend.Driver in
        let session = Rc_session.Refinedc_api.create_session ~case_studies:true () in
        let src =
          {|
[[rc::parameters("x: int", "y: int")]]
[[rc::args("x @ int<int>", "y @ int<int>")]]
[[rc::returns("(x <= y ? x : y) @ int<int>")]]
int imin(int a, int b) {
  if (a <= b) return a;
  return b;
}
|}
        in
        let t = Driver.check_source ~session ~file:"imin.c" src in
        let r = Driver.runlog_record ~session ~wall_s:0.5 t in
        let get k = J.member k r in
        Alcotest.(check (option string))
          "schema" (Some Runlog.schema_version)
          (Option.bind (get "schema") J.to_str);
        Alcotest.(check (option string))
          "kind" (Some "check")
          (Option.bind (get "kind") J.to_str);
        let apps =
          Option.get (Option.bind (get "rule_apps") J.to_int)
        in
        Alcotest.(check bool) "rule apps positive" true (apps > 0);
        Alcotest.(check (option (float 1e-6)))
          "apps/sec = apps ÷ wall"
          (Some (float_of_int apps /. 0.5))
          (J.number_member "apps_per_sec" r);
        let verdicts = Option.get (get "verdicts") in
        Alcotest.(check (option int))
          "verified count" (Some 1)
          (Option.bind (J.member "verified" verdicts) J.to_int);
        (* the record parses back from its NDJSON line form *)
        Alcotest.check json "line round-trip" r (parse_ok (J.to_line r)));
  ]

let () =
  Alcotest.run "runlog"
    [
      ("json parser", parser_tests);
      ("ledger", ledger_tests);
      ("regression", regression_tests);
      ("driver record", record_tests);
    ]
