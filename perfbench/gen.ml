(* Input generators of the benchmark.  They emit the same program shapes
   as the stress families of bench/corpus.ml, but live here so that the
   benchmark's inputs change only when the benchmark itself changes.
   Every generated program verifies, except where a caller asks for a
   known failure ([wide_exprs] past its overflow point). *)

let add = Buffer.add_string
let addf b fmt = Printf.ksprintf (add b) fmt

(* A single-function edit of a [loop_farm] function.  [nonce] makes every
   edit textually new, so a re-check after it is always a cache miss for
   exactly that one function: the edit stream has one cost class. *)
type edit_kind = Body | Spec | Inv
type edit = { kind : edit_kind; fn : int; nonce : int }

let kind_name = function Body -> "body" | Spec -> "spec" | Inv -> "inv"

let int_fn_header ?(extra_req = "") b name =
  add b "[[rc::parameters(\"n : int\")]]\n";
  add b "[[rc::args(\"n @ int<int>\")]]\n";
  addf b "[[rc::requires(\"{0 <= n}\", \"{n <= 1000}\"%s)]]\n" extra_req;
  add b "[[rc::exists(\"r : int\")]]\n";
  add b "[[rc::returns(\"r @ int<int>\")]]\n";
  addf b "int %s(int n) {\n" name

let diamonds b ~k =
  add b "  int x = 0;\n";
  for i = 0 to k - 1 do
    addf b "  if (n > %d) {\n    x = %d;\n  } else {\n    x = %d;\n  }\n" i i i
  done

(* [k] sequential if/else diamonds: exponential proof search without
   memoisation, and exponential certificates always. *)
let diamond_chain ~k =
  let b = Buffer.create 4096 in
  addf b "// generated: diamond_chain k=%d\n" k;
  int_fn_header b "diamonds";
  diamonds b ~k;
  add b "  return x;\n}\n";
  Buffer.contents b

(* [functions] independent copies of a [k]-diamond function. *)
let diamond_farm ~functions ~k =
  let b = Buffer.create 65536 in
  addf b "// generated: diamond_farm functions=%d k=%d\n" functions k;
  for i = 0 to functions - 1 do
    int_fn_header b (Printf.sprintf "dia%d" i);
    diamonds b ~k;
    add b "  return x;\n}\n"
  done;
  Buffer.contents b

(* An [n]-function call chain, callee first; [weight] diamonds in every
   body give each function a real proof-search cost. *)
let call_chain_into b ~weight ~n =
  for i = n - 1 downto 0 do
    add b "[[rc::parameters(\"n : int\")]]\n";
    add b "[[rc::args(\"n @ int<int>\")]]\n";
    add b "[[rc::returns(\"n @ int<int>\")]]\n";
    addf b "int f%d(int n) {\n" i;
    if weight > 0 then diamonds b ~k:weight;
    if i = n - 1 then add b "  return n;\n}\n"
    else addf b "  return f%d(n);\n}\n" (i + 1)
  done

let call_chain ~weight ~n =
  let b = Buffer.create 65536 in
  addf b "// generated: call_chain n=%d weight=%d\n" n weight;
  call_chain_into b ~weight ~n;
  Buffer.contents b

(* A [depth]-deep nest of refined structs and an accessor that walks to
   the innermost field: ownership-rule pressure. *)
let struct_nest ~depth =
  let b = Buffer.create 8192 in
  addf b "// generated: struct_nest depth=%d\n" depth;
  add b
    "struct [[rc::refined_by(\"a: int\")]] lvl0 {\n\
    \  [[rc::field(\"a @ int<int>\")]] int v;\n\
     };\n";
  for i = 1 to depth do
    addf b
      "struct [[rc::refined_by(\"a: int\")]] lvl%d {\n\
      \  [[rc::field(\"a @ lvl%d\")]] struct lvl%d inner;\n\
       };\n"
      i (i - 1) (i - 1)
  done;
  add b "\n[[rc::parameters(\"p: loc\", \"a: int\")]]\n";
  addf b "[[rc::args(\"p @ &own<a @ lvl%d>\")]]\n" depth;
  add b "[[rc::returns(\"a @ int<int>\")]]\n";
  addf b "[[rc::ensures(\"own p : a @ lvl%d\")]]\n" depth;
  addf b "int get(struct lvl%d *p) {\n  return p" depth;
  for i = 1 to depth do
    add b (if i = 1 then "->inner" else ".inner")
  done;
  add b ".v;\n}\n";
  Buffer.contents b

(* [stmts] straight-line statements, each a [width]-term addition chain:
   side-condition (default solver) pressure.  At width 3 the values grow
   fast enough that a long enough chain cannot be shown free of signed
   overflow, so the function fails to verify. *)
let wide_exprs ~stmts ~width =
  let b = Buffer.create 8192 in
  addf b "// generated: wide_exprs stmts=%d width=%d\n" stmts width;
  int_fn_header b "wide";
  add b "  int x0 = n + 1;\n";
  for i = 1 to stmts do
    addf b "  int x%d = x%d" i (i - 1);
    for j = 1 to width do
      addf b " + x%d" ((i - 1 + j) mod i)
    done;
    add b ";\n"
  done;
  addf b "  return x%d;\n}\n" stmts;
  Buffer.contents b

(* [functions] copies of a loop-invariant counting function ([count<i>]),
   optionally with one of them edited. *)
let loop_farm_into ?edit b ~functions =
  let edited k i =
    match edit with
    | Some e when e.kind = k && e.fn = i -> Some e.nonce
    | _ -> None
  in
  for i = 0 to functions - 1 do
    let extra_req =
      match edited Spec i with
      | Some nonce -> Printf.sprintf ", \"{0 <= %d}\"" nonce
      | None -> ""
    in
    int_fn_header ~extra_req b (Printf.sprintf "count%d" i);
    add b "  int i = 0;\n";
    add b "  [[rc::exists(\"a : int\")]]\n";
    add b "  [[rc::inv_vars(\"i: a @ int<int>\")]]\n";
    (match edited Inv i with
    | Some nonce ->
        addf b "  [[rc::constraints(\"{0 <= a}\", \"{a <= n}\", \"{0 <= %d}\")]]\n"
          nonce
    | None -> add b "  [[rc::constraints(\"{0 <= a}\", \"{a <= n}\")]]\n");
    add b "  while (i < n) {\n    i = i + 1;\n  }\n";
    match edited Body i with
    | Some nonce -> addf b "  int r%d = i;\n  return r%d;\n}\n" nonce nonce
    | None -> add b "  return i;\n}\n"
  done

let loop_farm ~functions =
  let b = Buffer.create 65536 in
  addf b "// generated: loop_farm functions=%d\n" functions;
  loop_farm_into b ~functions;
  Buffer.contents b

(* A spinlock pair plus [functions] specified critical sections: the
   lockset passes (race, lockrel, lockord) do real work on these. *)
let lock_farm_into b ~functions =
  add b "struct lock { int locked; };\n\n";
  add b
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
  add b
    "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
     [[rc::args(\"k @ &own<c @ lock_t>\")]]\n\
     [[rc::requires(\"own c : int<int>\")]]\n\
     [[rc::ensures(\"own k : c @ lock_t\")]]\n\
     void spin_unlock(struct lock* l) {\n\
    \  atomic_store(&l->locked, 0);\n\
     }\n\n";
  for i = 0 to functions - 1 do
    addf b
      "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
       [[rc::args(\"k @ &own<c @ lock_t>\", \"c @ &own<int<int>>\")]]\n\
       [[rc::ensures(\"own k : c @ lock_t\")]]\n\
       void crit%d(struct lock* l, int* counter) {\n\
      \  spin_lock(l);\n\
      \  *counter = %d;\n\
      \  spin_unlock(l);\n\
       }\n\n"
      i i
  done

(* The edit-session file: a loop farm, a lock farm and a weighted call
   chain in one translation unit.  Only loop-farm functions are edited. *)
type session_file = { loops : int; crits : int; chain : int; weight : int }

let session_source ?edit (s : session_file) =
  let b = Buffer.create (1 lsl 18) in
  addf b "// generated: edit session loops=%d crits=%d chain=%d weight=%d\n"
    s.loops s.crits s.chain s.weight;
  lock_farm_into b ~functions:s.crits;
  call_chain_into b ~weight:s.weight ~n:s.chain;
  loop_farm_into ?edit b ~functions:s.loops;
  Buffer.contents b
