(* Unit tests for the Lithium engine itself, on a tiny toy judgment
   language — checking the seven goal cases of §5, the evar sealing and
   instantiation heuristics, vacuous-truth handling, the Find/FindOpt
   extensions, and the no-backtracking commitment behaviour. *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal

(* A toy language: atoms assign an integer-term "type" to a named cell;
   the only judgment is subsumption, which demands term equality. *)
module Toy = struct
  type atom = string * term
  type env = unit

  type f =
    | Sub of atom * atom * goal
    | Loop of int * goal  (* a judgment whose rule recurses [n] times *)

  and goal = (f, atom) G.goal

  let pp_atom ppf (c, t) = Fmt.pf ppf "%s ◁ %a" c pp_term t
  let pp_f ppf = function
    | Sub (a, b, _) -> Fmt.pf ppf "%a <: %a" pp_atom a pp_atom b
    | Loop (n, _) -> Fmt.pf ppf "loop %d" n

  let head_id_of_f = function Sub _ -> 0 | Loop _ -> 1
  let head_names = [| "sub"; "loop" |]

  (* Toy judgments carry their continuation as data, so none of them are
     memoizable; the memo layer is exercised on the real language. *)
  let memo_key_of_f _ _ = None
  let loc_of_f _ = None

  let related ~exact:_ (c1, _) (c2, _) = String.equal c1 c2
  let resolve_atom r (c, t) = (c, r t)
  let mk_subsume a b g = Sub (a, b, g)
end

module E = Rc_lithium.Engine.Make (Toy)

let rules : E.rule list =
  [
    {
      E.rname = "SUB-EQ";
      prio = 10;
      heads = None;
      apply =
        (fun _ri j ->
          match j with
          | Toy.Sub ((_, t1), (_, t2), g) ->
              Some (G.Star (G.LProp (PEq (t1, t2)), g))
          | _ -> None);
    };
    {
      E.rname = "LOOP";
      prio = 10;
      heads = None;
      apply =
        (fun _ri j ->
          match j with
          | Toy.Loop (0, g) -> Some g
          | Toy.Loop (n, g) -> Some (G.Basic (Toy.Loop (n - 1, g)))
          | _ -> None);
    };
  ]

let cfg = { E.rules; tactics = [] }

let run g = E.run cfg ~env:() g

let check_ok name g =
  Alcotest.test_case name `Quick (fun () ->
      match run g with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "failed: %s" (Rc_lithium.Report.to_string e))

let check_fail name g =
  Alcotest.test_case name `Quick (fun () ->
      match run g with
      | Ok _ -> Alcotest.fail "unexpectedly succeeded"
      | Error _ -> ())

let atom c t = G.LAtom (c, t)

let engine_tests =
  [
    check_ok "true" G.True_;
    check_ok "intro then consume"
      (G.Wand (atom "a" (Num 1), G.Star (atom "a" (Num 1), G.True_)));
    check_fail "consume absent atom" (G.Star (atom "a" (Num 1), G.True_));
    check_fail "wrong type"
      (G.Wand (atom "a" (Num 1), G.Star (atom "a" (Num 2), G.True_)));
    check_ok "side condition discharged"
      (G.Star (G.LProp (PLe (Num 1, Num 2)), G.True_));
    check_fail "side condition fails"
      (G.Star (G.LProp (PLe (Num 2, Num 1)), G.True_));
    check_ok "vacuous truth from contradictory hypothesis"
      (G.Wand
         ( G.LProp (PEq (Num 1, Num 2)),
           G.Star (atom "missing" (Num 0), G.True_) ));
    check_ok "universal introduction"
      (G.All ("x", Sort.Int, fun x -> G.Star (G.LProp (PEq (x, x)), G.True_)));
    check_ok "existential via unification"
      (G.Ex ("x", Sort.Int, fun x -> G.Star (G.LProp (PEq (x, Num 7)), G.True_)));
    check_ok "evar used twice consistently"
      (G.Ex
         ( "x",
           Sort.Int,
           fun x ->
             G.Star
               ( G.LProp (PEq (x, Num 7)),
                 G.Star (G.LProp (PLe (x, Num 10)), G.True_) ) ));
    check_fail "evar used twice inconsistently"
      (G.Ex
         ( "x",
           Sort.Int,
           fun x ->
             G.Star
               ( G.LProp (PEq (x, Num 7)),
                 G.Star (G.LProp (PEq (x, Num 8)), G.True_) ) ));
    check_ok "goal-simp: ?xs ≠ [] instantiates a cons cell"
      (G.Ex
         ( "xs",
           Sort.List Sort.Int,
           fun xs ->
             G.Star (G.LProp (p_ne xs (Nil Sort.Int)), G.True_) ));
    check_ok "conjunction forks contexts"
      (G.Wand
         ( atom "a" (Num 1),
           G.AndG
             [
               (Some "left", G.Star (atom "a" (Num 1), G.True_));
               (Some "right", G.Star (atom "a" (Num 1), G.True_));
             ] ));
    check_ok "rule recursion (case 5)"
      (G.Basic (Toy.Loop (5, G.True_)));
    check_ok "subsumption through context lookup (case 6d)"
      (G.Wand (atom "c" (Add (Num 1, Num 2)), G.Star (atom "c" (Num 3), G.True_)));
    check_ok "left-goal re-association (case 6a)"
      (G.Wand
         ( atom "a" (Num 1),
           G.Wand
             ( atom "b" (Num 2),
               G.Star
                 ( G.LStar (atom "a" (Num 1), atom "b" (Num 2)),
                   G.True_ ) ) ));
    check_ok "left-existential hoisting (case 6b)"
      (G.Wand
         ( atom "a" (Num 4),
           G.Star
             ( G.LEx ("x", Sort.Int, fun x -> atom "a" x),
               G.Star (G.LProp PTrue, G.True_) ) ));
    check_ok "wand-left introduces hypotheses (case 7c)"
      (G.Wand
         ( G.LProp (PLe (nat "n", Num 5)),
           G.Star (G.LProp (PLe (nat "n", Num 6)), G.True_) ));
    check_ok "find consumes the atom"
      (G.Wand
         ( atom "a" (Num 1),
           G.Find
             {
               descr = "a";
               pred = (fun _ (c, _) -> c = "a");
               cont = (fun _ -> G.Star (atom "a" (Num 1), G.True_) |> fun _ -> G.True_);
             } ));
    check_fail "find fails when absent"
      (G.Find
         { descr = "a"; pred = (fun _ (c, _) -> c = "a"); cont = (fun _ -> G.True_) });
    check_ok "find-opt takes the absent branch"
      (G.FindOpt
         {
           descr = "a";
           pred = (fun _ (c, _) -> c = "a");
           cont =
             (function None -> G.True_ | Some _ -> G.Star (G.LProp PFalse, G.True_));
         });
  ]

let stats_tests =
  [
    Alcotest.test_case "statistics are recorded" `Quick (fun () ->
        match run (G.Basic (Toy.Loop (5, G.True_))) with
        | Ok { stats; _ } ->
            Alcotest.(check int) "rule applications" 6 stats.Rc_lithium.Stats.rule_apps;
            Alcotest.(check int)
              "distinct rules" 1
              (Rc_lithium.Stats.distinct_rules stats)
        | Error _ -> Alcotest.fail "failed");
    Alcotest.test_case "evar instantiations counted" `Quick (fun () ->
        match
          run
            (G.Ex
               ("x", Sort.Int, fun x -> G.Star (G.LProp (PEq (x, Num 1)), G.True_)))
        with
        | Ok { stats; _ } ->
            Alcotest.(check int) "evars" 1 stats.Rc_lithium.Stats.evar_insts
        | Error _ -> Alcotest.fail "failed");
    Alcotest.test_case "derivation records side conditions" `Quick (fun () ->
        (* must not be simplification-trivial, or it is discharged silently *)
        match
          run (G.Star (G.LProp (PLe (nat "n", Add (nat "n", Num 1))), G.True_))
        with
        | Ok { deriv; _ } ->
            Alcotest.(check int)
              "side conditions" 1
              (List.length (Rc_lithium.Deriv.side_conditions deriv))
        | Error _ -> Alcotest.fail "failed");
  ]

let () =
  Alcotest.run "lithium"
    [ ("engine", engine_tests); ("stats", stats_tests) ]
