(** Fault-injection campaign engine.

    A campaign repeats, for every sampled injection site and every
    fault model: reset the RTL system, arm one permanent fault, run the
    workload, and classify the outcome against a fault-free golden run.
    As in the paper, a fault {e becomes a failure} when the off-core
    write stream diverges from the golden one (light-lockstep
    observation): a wrong/extra write, a missing write at program end,
    a trap, or a hang (watchdog).  Runs stop at the first divergent
    write, so failures are cheap and only silent runs pay full cost.

    {b Acceleration layers.}  Most injections are redundant work, and
    the engine always skips it; none of the layers can be switched
    off.  Each task is classified once: value coverage classifies
    never-activating permanent faults silent without simulating;
    static analysis prunes faults outside the observation cone; every
    other task runs its lane fault — its collapse-class representative,
    or its own fault — and the tasks sharing a lane fault share one
    lane, whose first task in global order is their leader.  A
    permanent open line holds the bit it captures when the fault first
    acts, so its lane fault is the stuck-at of golden's bit there: a
    node's at the first settle under the fault, cycle
    [max inject_cycle 1], a cell's at [inject_cycle], the content its
    first write under the fault keeps; it shares the lane of that
    stuck-at task.  Each lane runs in a bit-parallel batch
    ({!Batch.run}, up to {!Rtl.Circuit.max_lanes} lanes at a time)
    against the golden value trace, paying only for its divergence
    from golden; a bounded fault's lane retires at the first boundary
    cycle (every [checkpoint_every] cycles) where its state equals the
    pass's own golden machine's, drivers and comparator progress
    included; and a lane is handed over to the scalar engine, from its
    transplanted state, when it outlives the trace (a hang candidate)
    or earlier, when its permanent fault makes it out-evaluate the
    golden machine ({!Batch.run}); there cycle proofs decide the
    periodic hangs early.  Every layer is exact: a campaign's verdicts, failure
    breakdowns and latencies equal the dense reference's — {!run_one}
    without a replay plan, against a {!golden_run} with no coverage or
    trace.  {!summary} reports how much simulation was
    avoided.

    {b Telemetry.}  Every entry point accepts an [?obs] collector
    (default {!Obs.null}, no cost).  A live collector receives
    per-phase spans ([golden], [site_sampling], [static.graph],
    [static_analysis], [prefilter], [simulate], [converge]),
    per-injection outcome counters ([injections], [outcome.*],
    [prefiltered], [early_exits], [simulated], [static.pruned],
    [static.collapsed], [cycles.saved], plus [rtl.cycles] /
    [rtl.instructions] from the attached system) and a
    [detect_latency] histogram.  Each scalar continuation of an
    ejected lane adds to [tail.transplants] and to [tail.watchdog],
    and by its verdict class to the counter [tail.cycles.<class>]
    (cycles from the transplant to the stop) and the time
    [tail.watchdog.<class>], where the class is [budget_hang],
    [proved_hang] (a hang a cycle proof stopped before the budget),
    [wrong_write], [missing_writes], [trap] or [silent].  Every task
    of a campaign counts once in [injections].  {!run_parallel} gives
    each spawned domain a private {!Obs.fork} and merges them in spawn
    order, so counter totals are identical for any domain count. *)

module C = Rtl.Circuit
module Bus_event = Sparc.Bus_event

type golden = {
  writes : Bus_event.t array;  (** off-core write stream, in order *)
  events : Bus_event.t array;  (** writes and reads *)
  cycles : int;
  instructions : int;
  stop : Leon3.System.stop_reason;
  coverage : C.coverage option;
      (** value coverage, when recorded — powers the activation
          prefilter *)
  converge_every : int option;
      (** the interval between convergence boundaries, when asked for
          ([golden_run ~checkpoint_every]): a bounded fault's lane may
          converge at every positive multiple of it *)
  trace : C.trace option;
      (** delta-compressed per-cycle value trace, when recorded —
          powers the batch engine the faulty runs execute on *)
  captures : (int * C.fault_site, int) Hashtbl.t;
      (** golden's bit (0 or 1) at each [(cycle, site)] that
          [golden_run ~capture] asked for — the bits permanent open
          lines capture *)
}

val golden_run :
  ?obs:Obs.t ->
  ?coverage:bool ->
  ?trace:bool ->
  ?checkpoint_every:int ->
  ?capture:(int * C.fault_site) list ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  max_cycles:int ->
  golden
(** Run fault-free and capture the reference behaviour.  [coverage]
    (default false) records per-bit value coverage for the activation
    prefilter; [trace] (default false) records the per-cycle value
    trace for the batch engine; [checkpoint_every] (default none) sets
    the interval between the boundary cycles at which a bounded fault's
    lane may converge, carried in [converge_every]; [capture] (default none) reads each listed
    [(cycle, site)] bit in the settled state of that cycle, or in the
    final state for a cycle past the end of the run.  Pausing adds no
    simulated cycle.  Raises
    [Failure] if the golden run itself traps or hits the cycle limit
    (the workload is broken, not the hardware).  Its settles are change-driven; a live [obs] receives
    [golden.evaluated], the comb evaluations they made, and
    [golden.dense_equiv], comb nodes × settles. *)

(** Verdict types live in {!Journal} (the persistence layer cannot
    depend on this module); they are re-exported here so existing
    [Campaign.Silent]-style code keeps compiling. *)

type failure_kind = Journal.failure_kind =
  | Wrong_write of int  (** index of the first divergent write *)
  | Missing_writes of int  (** clean exit but only this many writes matched *)
  | Trap of int  (** core trapped; payload is the trap code *)
  | Hang  (** watchdog: cycle budget exhausted *)

type outcome = Journal.outcome = Silent | Failure of failure_kind

type sim_status = Journal.sim_status =
  | Simulated  (** the faulty run was executed to its verdict *)
  | Prefiltered  (** provably never activates; no simulation at all *)
  | Converged of int
      (** simulated until state equality with the golden run at the
          boundary cycle given proved the rest *)
  | Pruned
      (** outside the backward cone of the observation points —
          statically silent, no simulation *)
  | Collapsed of string
      (** shares its lane fault with the leader task at the named site
          (the first task in global order with that fault); verdict
          copied from the leader's lane, no lane of its own *)

type run_result = Journal.run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
      (** cycle of first divergence/trap, when the run failed *)
  inject_cycle : int;
  sim : sim_status;  (** how much of the run was actually simulated *)
}

val run_one :
  ?obs:Obs.t ->
  ?plan:C.lowering ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  golden ->
  ?inject_cycle:int ->
  ?duration:int ->
  ?hang_factor:int ->
  ?compare_reads:bool ->
  Injection.site ->
  C.fault_model ->
  run_result
(** Execute one faulty run.  [duration] bounds the fault's active
    window (default permanent).  [hang_factor] scales the golden cycle
    count into the watchdog budget (default 4 — cache-degrading faults
    can legitimately run slower without failing).  [compare_reads]
    extends the lockstep comparison to reads (default false, the paper
    compares writes only).  If [golden] carries coverage, a fault the
    prefilter proves inactive is classified without simulating.

    When [plan] (the kernel's lowering, {!C.compiled_plan}, which the
    lane engine reads) is given {e and} [golden] carries a trace, the
    run is a one-lane {!Batch.run} from cycle 0, exactly as campaigns
    run their faults: it converges early at [golden]'s boundary cycles
    once a bounded fault has expired, and continues on the scalar
    engine if it outlives the trace.  Lane statistics land on [obs] as
    [diff.nodes_evaluated] / [diff.golden_evaluated] counters.
    Otherwise the run is a plain dense simulation from reset on the
    reference engine ({!C.reference}: every settle a dense sweep), with
    no convergence exit: on a golden run with no coverage this is the
    dense reference every campaign verdict must equal. *)

type summary = {
  injections : int;
  failures : int;
  pf : float;  (** failures / injections *)
  wrong_writes : int;
  missing_writes : int;
  traps : int;
  hangs : int;
  max_latency : int;  (** cycles, over detected failures *)
  mean_latency : float;
  skipped : int;  (** injections classified by the prefilter, unsimulated *)
  early_exits : int;
      (** simulated runs retired early: convergence with the golden run
          at a boundary cycle once a bounded fault expired *)
  pruned : int;  (** injections outside the observation cone, unsimulated *)
  collapsed : int;  (** injections that copied a collapse leader's verdict *)
}

val summarize : run_result list -> summary

type config = {
  models : C.fault_model list;
  sample_size : int option;  (** [None] = exhaustive *)
  include_cells : bool;
  inject_cycle : int;
  hang_factor : int;
  compare_reads : bool;
  seed : int;
  shard : int * int;
      (** [(i, n)]: execute only the sites whose sample index is
          congruent to [i-1 mod n] (1-based, default [(1, 1)] = all).
          Shards of the same seeded campaign are disjoint and
          covering, and — because collapse leaders are chosen over the
          global task list — the union of the [n] shards' verdicts is
          byte-identical to the unsharded run's.  Out-of-range values
          raise [Invalid_argument]. *)
}

val default_config : config
(** Stuck-at-0/1 + open-line, 400-site sample, cells included,
    injection at cycle 0, watchdog 4x, writes-only compare, seed 7,
    shard 1/1. *)

type prepared
(** Everything shard-independent and expensive about a campaign —
    golden run (with coverage and trace), static analysis, per-task
    classification — packaged for
    reuse.  This is the value the serve layer's content-addressed
    golden-trace cache stores: any number of {!run}/{!run_parallel}
    invocations (any shard of the same campaign) may consume one
    preparation instead of recomputing it.  Immutable after
    construction; safe to share across domains and across forked
    worker processes. *)

val prepare :
  ?config:config ->
  ?obs:Obs.t ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  prepared
(** Run the golden simulation and static analysis up front.  The
    [config.shard] field is ignored (the preparation is
    shard-normalised).  [obs] receives the usual [golden] /
    [site_sampling] spans, [static.graph] for the dependency-graph
    extraction and [static_analysis] around the observation cone, with
    [static.dominator] and [static.collapse] inside it. *)

val run :
  ?config:config ->
  ?obs:Obs.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  (C.fault_model * summary) list * run_result list
(** {!run_parallel} with one domain on the caller's system: no domain
    spawned, no extra system built. *)

val run_parallel :
  ?config:config ->
  ?obs:Obs.t ->
  ?domains:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  (unit -> Leon3.System.t) ->
  Sparc.Asm.program ->
  Injection.target ->
  (C.fault_model * summary) list * run_result list
(** Full campaign for one workload and one target block: golden run,
    site sampling, every model over the same sampled sites (restricted
    to [config.shard]).  Returns per-model summaries plus every
    individual result, in model-major task order.

    The campaign runs on {!Executor} over [domains] OCaml domains
    (default 4).  The factory builds the first worker's system — which
    also runs the golden run and static analysis — and is called once
    more per spawned domain.  Results are identical for any domain
    count.  Every simulated fault runs in the executor's queue: the
    shard's pending tasks that share a lane fault run as one lane.  Its
    leader, when pending, takes the lane's verdict; every other member
    copies it as [Collapsed].  A group whose leader sits in another
    shard, or in the journal, still runs its lane here, but only its
    members count as injections, so the [injections] counter equals
    the shard's task count; the lane's time is still charged to the
    [simulate] or [converge] phase.  [on_progress] is invoked after every
    classified injection with an atomically increasing [done_]
    (callers must tolerate concurrent invocation); the final call
    reports [done_ = total], the shard's task count.  A worker that
    raises aborts its peers at the next work unit, and the original
    exception is re-raised with its backtrace once every domain has
    joined; verdicts classified before the abort are already
    journaled.

    [journal] appends every classified verdict to a crash-safe JSONL
    file ({!Journal}), fsync'd in batches, headed by the campaign
    fingerprint.  With [resume] (requires [journal]) an existing
    journal is validated against the fingerprint — mismatch raises
    {!Journal.Rejected} — and its verdicts are replayed byte-identically
    into the results instead of being re-simulated (counted on [obs] as
    [journal.replayed]); only the remainder is executed and appended.
    If every verdict is already journaled, the golden run and static
    analysis are skipped entirely.

    [prepared] supplies a {!prepare}d golden run + static analysis
    instead of recomputing them.  The preparation's fingerprint is
    validated against this campaign's own (cheaply recomputed) one —
    any field but the shard differing raises [Invalid_argument], so a
    cache cannot splice a foreign golden trace into a campaign. *)

val pf_percent : summary -> float
(** [100 * pf], as the paper's figures report. *)

val run_transient :
  ?sample:int ->
  ?seed:int ->
  ?checkpoint_every:int ->
  ?obs:Obs.t ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  summary
(** Single-event-upset campaign (the paper's stated future work):
    one-cycle bit inversions at uniformly random instants, one instant
    per sampled site.  The upsets run as lanes of batches of up to
    {!Rtl.Circuit.max_lanes}, from cycle 0 against the golden trace; a
    lane retires early at the first boundary cycle (every
    [checkpoint_every] cycles, default 512) at which its state has
    re-converged with the golden run — for a 1-cycle upset that is
    typically the first one after its instant — and counts in
    [summary.early_exits]. *)
