(** The stress-corpus generator: parameterized synthetic C programs that
    scale the proof-search load far beyond the ~25ms case-study corpus,
    so engine-speed work (hash-consed dispatch, subgoal memoization,
    profile-guided rule order) has something measurable to move.

    Every generator returns complete, annotated C source that the
    frontend accepts and the checker verifies.  The tests consume these
    ([test/test_memo.ml], [test/test_incremental.ml],
    [test/test_analysis.ml]), so each family doubles as a semantics
    fixture — any engine configuration must produce the same verdict on
    all of them.  The repository benchmark ([perfbench/gen.ml]) keeps
    its own copies of these shapes.

    Families (mirroring the shapes the case studies exhibit in miniature):
    - {!diamond_chain}: k sequential if/else diamonds whose join blocks
      the goto-inlining engine re-checks once per incoming path — the
      proof-search cost is Θ(2^k) without memoization and Θ(k) with it;
    - {!call_chain}: an n-function call graph (each function calls the
      next), weighting the call/subsumption rules;
    - {!struct_nest}: a d-deep nest of refined structs with an accessor
      that walks to the innermost field, weighting the ownership rules;
    - {!wide_exprs}: straight-line functions of long arithmetic chains —
      wide rule pressure with no branching at all;
    - {!loop_farm}: f scaled copies of a loop-invariant function, the
      shape of the existing studies' inner loops repeated per file. *)

let buf_add = Buffer.add_string

(** The standard scalar spec header shared by the int->int families.
    [~taut:true] appends a tautological precondition — a spec-signature
    edit that cannot change any verdict (the incremental fixtures use it
    to dirty exactly one function's interface). *)
let int_fn_header ?(taut = false) b name =
  buf_add b "[[rc::parameters(\"n : int\")]]\n";
  buf_add b "[[rc::args(\"n @ int<int>\")]]\n";
  if taut then
    buf_add b "[[rc::requires(\"{0 <= n}\", \"{n <= 1000}\", \"{0 <= 0}\")]]\n"
  else buf_add b "[[rc::requires(\"{0 <= n}\", \"{n <= 1000}\")]]\n";
  buf_add b "[[rc::exists(\"r : int\")]]\n";
  buf_add b "[[rc::returns(\"r @ int<int>\")]]\n";
  buf_add b (Printf.sprintf "int %s(int n) {\n" name)

(** [k] sequential if/else diamonds.  Both arms of diamond [i] write the
    same constant, so every join block is reached with the same
    ownership context along both paths — exactly the situation where the
    engine's within-run memo table collapses the exponential re-check:
    2^k suffix solves without it, k + 1 with it. *)
let diamond_chain ~(k : int) : string =
  let b = Buffer.create (256 + (k * 96)) in
  buf_add b "// generated: diamond_chain k=";
  buf_add b (string_of_int k);
  buf_add b "\n";
  int_fn_header b "diamonds";
  buf_add b "  int x = 0;\n";
  for i = 0 to k - 1 do
    buf_add b
      (Printf.sprintf "  if (n > %d) {\n    x = %d;\n  } else {\n    x = %d;\n  }\n"
         i i i)
  done;
  buf_add b "  return x;\n}\n";
  Buffer.contents b

(** Single-function edits for the incremental-verification benchmarks
    and tests.  Every edit keeps the program verifying — the point is to
    move exactly one function's body digest ([`Body i]: a semantically
    transparent rewrite), one function's spec signature ([`Spec i]: an
    extra tautological [rc::requires]), or one loop invariant ([`Inv i])
    — so the expected dirty cone is known by construction. *)
type edit = [ `Body of int | `Spec of int | `Inv of int ]

let spec_edited edit i =
  match edit with Some (`Spec j) -> j = i | _ -> false

let body_edited edit i =
  match edit with Some (`Body j) -> j = i | _ -> false

let inv_edited edit i =
  match edit with Some (`Inv j) -> j = i | _ -> false

(** An [n]-function call chain: [f0] calls [f1] calls ... calls
    [f(n-1)].  Functions are emitted callee-first so every call sees its
    callee's specification.  [?edit]: [`Body i] rewrites [fi]'s body
    without touching its spec (expected dirty cone: [fi] alone — early
    cutoff); [`Spec i] adds a tautological precondition to [fi]
    (expected dirty cone: [fi] and its direct caller [f(i-1)]).
    [?weight] prepends that many if/else diamonds to every body, giving
    each function a realistic per-function proof-search cost (the
    incremental benchmarks use it so the frontend's whole-file parse
    does not drown out the verification being saved); 0 keeps the
    original pure-plumbing chain. *)
let call_chain ?edit ?(weight = 0) ~(n : int) () : string =
  let b = Buffer.create (256 + (n * (160 + (weight * 96)))) in
  buf_add b "// generated: call_chain n=";
  buf_add b (string_of_int n);
  buf_add b "\n";
  for i = n - 1 downto 0 do
    buf_add b "[[rc::parameters(\"n : int\")]]\n";
    buf_add b "[[rc::args(\"n @ int<int>\")]]\n";
    if spec_edited edit i then buf_add b "[[rc::requires(\"{0 <= 0}\")]]\n";
    buf_add b "[[rc::returns(\"n @ int<int>\")]]\n";
    let ballast = Buffer.create (64 + (weight * 96)) in
    if weight > 0 then begin
      buf_add ballast "  int x = 0;\n";
      for j = 0 to weight - 1 do
        buf_add ballast
          (Printf.sprintf
             "  if (n > %d) {\n    x = %d;\n  } else {\n    x = %d;\n  }\n" j j
             j)
      done
    end;
    let body =
      if i = n - 1 then
        if body_edited edit i then "  int m = n;\n  return m;\n"
        else "  return n;\n"
      else if body_edited edit i then
        Printf.sprintf "  int m = n;\n  return f%d(m);\n" (i + 1)
      else Printf.sprintf "  return f%d(n);\n" (i + 1)
    in
    buf_add b
      (Printf.sprintf "int f%d(int n) {\n%s%s}\n" i (Buffer.contents ballast)
         body)
  done;
  Buffer.contents b

(** [functions] independent copies of a [k]-diamond function (the
    {!diamond_chain} shape scaled out across a file): an edit-one-body
    fixture whose functions share no call edges, so any single edit's
    dirty cone is exactly the edited function. *)
let diamond_farm ?edit ~(functions : int) ~(k : int) () : string =
  let b = Buffer.create (256 + (functions * (256 + (k * 96)))) in
  buf_add b
    (Printf.sprintf "// generated: diamond_farm functions=%d k=%d\n" functions
       k);
  for fi = 0 to functions - 1 do
    int_fn_header ~taut:(spec_edited edit fi) b (Printf.sprintf "dia%d" fi);
    buf_add b "  int x = 0;\n";
    for i = 0 to k - 1 do
      buf_add b
        (Printf.sprintf
           "  if (n > %d) {\n    x = %d;\n  } else {\n    x = %d;\n  }\n" i i
           i)
    done;
    if body_edited edit fi then buf_add b "  int y = x;\n  return y;\n"
    else buf_add b "  return x;\n";
    buf_add b "}\n"
  done;
  Buffer.contents b

(** A [depth]-deep nest of singly-refined structs plus an accessor that
    dereferences all the way down: [lvl0] holds the int, [lvl(i+1)]
    holds an [lvl(i)], and [get] returns [p->inner...inner.v]. *)
let struct_nest ~(depth : int) : string =
  let b = Buffer.create (256 + (depth * 160)) in
  buf_add b "// generated: struct_nest depth=";
  buf_add b (string_of_int depth);
  buf_add b "\n";
  buf_add b
    "struct [[rc::refined_by(\"a: int\")]] lvl0 {\n\
    \  [[rc::field(\"a @ int<int>\")]] int v;\n\
     };\n";
  for i = 1 to depth do
    buf_add b
      (Printf.sprintf
         "struct [[rc::refined_by(\"a: int\")]] lvl%d {\n\
         \  [[rc::field(\"a @ lvl%d\")]] struct lvl%d inner;\n\
          };\n"
         i (i - 1) (i - 1))
  done;
  buf_add b "\n[[rc::parameters(\"p: loc\", \"a: int\")]]\n";
  buf_add b (Printf.sprintf "[[rc::args(\"p @ &own<a @ lvl%d>\")]]\n" depth);
  buf_add b "[[rc::returns(\"a @ int<int>\")]]\n";
  buf_add b (Printf.sprintf "[[rc::ensures(\"own p : a @ lvl%d\")]]\n" depth);
  buf_add b (Printf.sprintf "int get(struct lvl%d *p) {\n  return p" depth);
  (* only the first hop dereferences the pointer; the rest are field
     accesses on the embedded struct values *)
  for i = 1 to depth do
    buf_add b (if i = 1 then "->inner" else ".inner")
  done;
  buf_add b ".v;\n}\n";
  Buffer.contents b

(** [stmts] straight-line statements, each a [width]-term addition chain
    over the accumulated locals: maximal rule pressure per statement,
    zero branching, so dispatch cost (not search shape) dominates. *)
let wide_exprs ~(stmts : int) ~(width : int) : string =
  let b = Buffer.create (256 + (stmts * width * 8)) in
  buf_add b
    (Printf.sprintf "// generated: wide_exprs stmts=%d width=%d\n" stmts width);
  int_fn_header b "wide";
  buf_add b "  int x0 = n + 1;\n";
  for i = 1 to stmts do
    buf_add b (Printf.sprintf "  int x%d = x%d" i (i - 1));
    for j = 1 to width do
      buf_add b (Printf.sprintf " + x%d" ((i - 1 + j) mod i))
    done;
    buf_add b ";\n"
  done;
  buf_add b (Printf.sprintf "  return x%d;\n}\n" stmts);
  Buffer.contents b

(** [functions] renamed copies of a loop-invariant counting function —
    the inner-loop shape of the existing studies (binary search, queue
    drain) scaled out across a whole file, so per-function overheads and
    pool fan-out dominate. *)
let loop_farm ?edit ~(functions : int) () : string =
  let b = Buffer.create (256 + (functions * 320)) in
  buf_add b "// generated: loop_farm functions=";
  buf_add b (string_of_int functions);
  buf_add b "\n";
  for i = 0 to functions - 1 do
    int_fn_header ~taut:(spec_edited edit i) b (Printf.sprintf "count%d" i);
    buf_add b "  int i = 0;\n";
    buf_add b "  [[rc::exists(\"a : int\")]]\n";
    buf_add b "  [[rc::inv_vars(\"i: a @ int<int>\")]]\n";
    if inv_edited edit i then
      buf_add b "  [[rc::constraints(\"{0 <= a}\", \"{a <= n}\", \"{0 <= 0}\")]]\n"
    else buf_add b "  [[rc::constraints(\"{0 <= a}\", \"{a <= n}\")]]\n";
    buf_add b "  while (i < n) {\n    i = i + 1;\n  }\n";
    if body_edited edit i then buf_add b "  int r = i;\n  return r;\n}\n"
    else buf_add b "  return i;\n}\n"
  done;
  Buffer.contents b

(** The concurrency family: a [spinlock.c]-style lock pair plus
    [functions] specified critical sections ([crit<i>]: lock, write the
    protected counter, unlock) — all of which verify and lint race-clean
    under the lockset analysis.  [?racy] appends that many unspecified
    functions that write the shared counter with {e no} lock held, and
    [?hoisted] that many where the write is moved {e before} the
    acquire: both shapes are the seeded-race mutants the differential
    harness checks, and each must draw an RC-L030 from the [race] pass
    (they carry no spec, so [check] skips them and verdicts are
    unchanged). *)
let lock_farm ?(racy = 0) ?(hoisted = 0) ~(functions : int) () : string =
  let b = Buffer.create (1024 + ((functions + racy + hoisted) * 256)) in
  buf_add b
    (Printf.sprintf "// generated: lock_farm functions=%d racy=%d hoisted=%d\n"
       functions racy hoisted);
  buf_add b "struct lock { int locked; };\n\n";
  buf_add b
    "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
     [[rc::args(\"k @ &own<c @ lock_t>\")]]\n\
     [[rc::ensures(\"own k : c @ lock_t\", \"own c : int<int>\")]]\n\
     void spin_lock(struct lock* l) {\n\
    \  int expected = 0;\n\
    \  [[rc::inv_vars(\"l: k @ &own<c @ lock_t>\")]]\n\
    \  while (1) {\n\
    \    expected = 0;\n\
    \    int ok = atomic_compare_exchange_strong(&l->locked, &expected, 1);\n\
    \    if (ok)\n\
    \      return;\n\
    \  }\n\
     }\n\n";
  buf_add b
    "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
     [[rc::args(\"k @ &own<c @ lock_t>\")]]\n\
     [[rc::requires(\"own c : int<int>\")]]\n\
     [[rc::ensures(\"own k : c @ lock_t\")]]\n\
     void spin_unlock(struct lock* l) {\n\
    \  atomic_store(&l->locked, 0);\n\
     }\n\n";
  for i = 0 to functions - 1 do
    buf_add b
      (Printf.sprintf
         "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
          [[rc::args(\"k @ &own<c @ lock_t>\", \"c @ &own<int<int>>\")]]\n\
          [[rc::ensures(\"own k : c @ lock_t\")]]\n\
          void crit%d(struct lock* l, int* counter) {\n\
         \  spin_lock(l);\n\
         \  *counter = %d;\n\
         \  spin_unlock(l);\n\
          }\n\n"
         i i)
  done;
  for i = 0 to racy - 1 do
    buf_add b
      (Printf.sprintf
         "void racy%d(struct lock* l, int* counter) {\n\
         \  *counter = %d;\n\
          }\n\n"
         i i)
  done;
  for i = 0 to hoisted - 1 do
    buf_add b
      (Printf.sprintf
         "void hoist%d(struct lock* l, int* counter) {\n\
         \  *counter = %d;\n\
         \  spin_lock(l);\n\
         \  spin_unlock(l);\n\
          }\n\n"
         i i)
  done;
  Buffer.contents b

(** One named stress program: [(name, c_source)]. *)
type program = { p_name : string; p_src : string }

(** The standard stress corpus at a given [scale] (1 = the test size).
    Sizes are chosen so the diamond family's exponential blow-up stays
    around a second at scale 2 with memoization off. *)
let stress_corpus ~(scale : int) : program list =
  let s = max 1 scale in
  [
    { p_name = "diamonds_small.c"; p_src = diamond_chain ~k:(4 * s) };
    { p_name = "diamonds_large.c"; p_src = diamond_chain ~k:(10 + (2 * s)) };
    { p_name = "call_chain.c"; p_src = call_chain ~n:(12 * s) () };
    { p_name = "struct_nest.c"; p_src = struct_nest ~depth:(8 * s) };
    (* width is capped at 3: the default side-condition solver is
       exponential in the addition-chain length, and past ~4 terms the
       solver — not engine dispatch — dominates the measurement *)
    { p_name = "wide_exprs.c"; p_src = wide_exprs ~stmts:(10 * s) ~width:3 };
    { p_name = "loop_farm.c"; p_src = loop_farm ~functions:(8 * s) () };
  ]
