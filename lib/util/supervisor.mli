(** A persistent, supervised worker pool with per-task crash isolation,
    a transient-fault retry policy, whole-run deadlines and graceful
    degradation.

    A supervisor spawns its domains {e once} — per CLI invocation or per
    long-lived session — and feeds them batches through a shared work
    queue.  A task that crashes, times out or is skipped becomes a
    structured {!outcome} for that one item; completed results are
    never discarded.

    Supervision model:

    - {b Crash isolation.}  Any exception escaping a task — including
      [Out_of_memory] and [Stack_overflow] — is confined to that task's
      {!Fault} outcome.  [Sys.Break] is the single exception: masking an
      interrupt would be dishonest, so it propagates to the caller
      (cooperative interruption should use [~cancel] instead).
    - {b Worker respawn.}  A worker domain that dies {e between} tasks
      (the dispatch boundary — in practice only a {!Faultsim} injection
      at the ["pool.dispatch"] site, or a runtime bug) has its claimed
      task re-queued and is respawned with capped exponential backoff.
      After [max_respawns] respawns the pool stops respawning and
      degrades (see below); the run still completes.
    - {b Retry.}  A task whose {e result} the caller classifies as
      transiently faulted ([~should_retry]), or that raised an exception
      classified transient ([~is_transient]), is re-attempted up to
      [~retries] times with capped exponential backoff.  Deterministic
      failures are never retried, and a cancelled or past-deadline run
      stops retrying after the in-flight attempt (keeping that
      attempt's outcome) — a large retry budget never makes the run
      uninterruptible.
    - {b Deadlines.}  [~deadline] bounds the whole run on the monotonic
      clock: once it passes, no further task is {e started} and every
      unstarted task resolves to {!Not_run}.  In-flight tasks are not
      preempted — per-task wall-clock limits are the resource budget's
      job ({!Budget.limits}), enforced cooperatively inside the task.
    - {b Graceful degradation.}  If every worker has died and the
      respawn allowance is exhausted, the pool marks itself {!Degraded}
      and the {e calling} domain drains the remaining queue sequentially
      — same isolation, retry and deadline semantics, no parallelism.
      A degraded run never changes any verdict, only the wall-clock.

    The implementation is selected at build time ([dune] copies the
    matching [supervisor_*.ml.in] into [supervisor.ml]): on OCaml 5 it
    fans out across domains ([supervisor_domains.ml.in]); on 4.x it
    degrades to the same sequential engine used by the degraded path
    ([supervisor_seq.ml.in]), with an identical API, so callers need no
    version conditionals.

    Concurrency contract: one [run] at a time per supervisor (batches
    are not re-entrant); any number of supervisors may coexist.  The
    handle is a resource owned by whoever created it — a CLI invocation,
    a bench harness, a server session — and travels inside the
    verification session like every other piece of configuration. *)

val parallelism_available : bool
(** [true] iff this build can actually run work items concurrently. *)

val recommended_jobs : unit -> int
(** The number of workers the hardware can actually run concurrently
    (the runtime's recommended domain count; [1] on sequential builds).
    Policy layers (the CLI, the driver, the bench harness) clamp a
    requested [-j N] to this before sizing a pool: worker domains beyond
    the core count only add scheduling and GC-synchronisation overhead —
    on a single-core host a [-j 4] request degrades all the way to
    inline sequential execution, which is the fastest thing that host
    can do.  {!create} itself does not clamp, so tests and embedders can
    deliberately oversubscribe. *)

val worker_id : unit -> int
(** The calling domain's runtime id on OCaml 5, [0] on a sequential
    build.  Observability only (task placement events): the value is
    scheduling-dependent, never part of any deterministic output. *)

type t

type health =
  | Healthy
  | Degraded of string
      (** the pool fell back to sequential execution; the payload says
          why (e.g. the respawn allowance was exhausted) *)

val create : ?jobs:int -> ?max_respawns:int -> unit -> t
(** Spawn a pool of [jobs] persistent worker domains (default: the
    runtime's recommended count; sequential builds spawn none).
    [max_respawns] (default 16) caps worker respawns over the pool's
    lifetime before it degrades. *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val health : t -> health

val shutdown : t -> unit
(** Stop and join every worker.  Idempotent.  Outstanding batches must
    have completed ([run] has returned). *)

(** The structured fate of one task. *)
type 'b outcome =
  | Done of 'b  (** the (last) attempt returned normally *)
  | Fault of fault
      (** every attempt raised; the task's slot holds the final
          attempt's printed exception instead of aborting the batch *)
  | Not_run of reason
      (** never started: the run deadline passed, the run was
          cancelled, or the task was abandoned by supervision *)

and fault = {
  f_exn : string;  (** printed exception of the final attempt *)
  f_attempts : int;  (** total attempts made (>= 1) *)
}

and reason = Deadline | Cancelled

(** Counters for one [run], for observability and reports.  All zero on
    a fault-free, deadline-free run — which keeps [-j 1] and [-j 4]
    reports byte-identical. *)
type run_stats = {
  rs_retries : int;  (** task re-attempts (transient faults) *)
  rs_task_faults : int;  (** tasks that exhausted their attempts *)
  rs_crashes : int;  (** worker domains that died at the dispatch boundary *)
  rs_respawns : int;  (** worker domains respawned *)
  rs_not_run : int;  (** tasks resolved {!Not_run} *)
  rs_degraded : bool;  (** the run (partly) fell back to sequential *)
  rs_stop : reason option;  (** why the run stopped early, if it did *)
}

val run :
  t ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  ?retries:int ->
  ?should_retry:('b -> bool) ->
  ?is_transient:(exn -> bool) ->
  ?fault:Faultsim.t ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list * run_stats
(** [run t f items] applies [f] to every item and returns the outcomes
    in input order.

    [?deadline] is the whole-run wall-clock budget in seconds, measured
    from the call on the monotonic clock.  [?cancel] is polled at every
    dispatch; once it returns [true] the remaining tasks resolve
    [Not_run Cancelled] (the cooperative SIGINT path).  [?retries]
    (default 0) caps re-attempts per task; a re-attempt happens when
    [should_retry] accepts the returned value or [is_transient] accepts
    the raised exception.  [?fault] arms the ["pool.dispatch"] chaos
    site at the worker dispatch boundary (domain builds only): an
    injection there kills the worker itself, exercising the respawn and
    redispatch machinery rather than the per-task isolation.

    On a sequential build — or on a {!Degraded} pool — the same engine
    runs every task on the calling domain; semantics are identical
    except that nothing runs concurrently. *)

val run_seq :
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  ?retries:int ->
  ?should_retry:('b -> bool) ->
  ?is_transient:(exn -> bool) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list * run_stats
(** The pool-less sequential engine: [run] semantics on the calling
    domain, without creating a supervisor.  This is what [jobs <= 1]
    drivers use, what degraded pools fall back to, and the whole
    implementation on OCaml 4.x. *)
