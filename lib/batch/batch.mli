(** Bit-parallel fault batching at the system level (PPSFP): the one
    accelerated faulty-run engine.

    [run] packs up to {!Rtl.Circuit.max_lanes} single-fault machines
    into one {!Rtl.Lanes} pass, started from a {!Leon3.System}'s loaded
    circuit, and advances them all from cycle 0 against one golden
    trace: the golden machine's values come straight from the trace
    deltas, each lane pays only for its divergence cone (a lane whose
    fault has not fired yet costs next to nothing), and the off-core
    world (bus drivers, main memory) is replicated per lane as cheap
    sparse overlays above the golden image.  The pass drives the golden
    bus from the lanes' golden machine, through a replica of the golden
    run's bus drivers, and never writes the circuit, which stays in its
    loaded state.  Every driver — a lane's own and the golden replica —
    steps through {!Leon3.Bus_port.step}, the scalar system's one
    driver step.
    Permanent faults, bounded and one-cycle faults, write-only and
    read-comparing observation all run here; a single fault is a
    one-lane batch.

    A lane whose off-core state equals golden's is a {e follower}: it
    shares golden's bus request and answer signals on both ports (no
    divergence mark on any of them, {!Rtl.Lanes.diverged}), both port
    drivers' countdown and ready states, and main memory (an empty
    overlay).  A follower costs nothing per cycle off-core: it takes
    the golden drivers' step, records golden's bus event through its
    own comparator, and its bus answers arrive with the golden trace.
    A lane leaves the follow set at a cycle where one of those signals
    carries a divergence mark, taking over golden's driver states, and
    is then driven lane by lane; it rejoins at the first cycle where
    its signals, drivers and memory equal golden's again.  Terminal
    checks visit only lanes with a stop or a mismatch recorded and
    lanes diverged on [halted], unless golden has halted or the cycle
    limit is reached.

    Verdict-relevant behaviour — event streams, stop reasons, stop and
    mismatch cycles — is identical to running each fault through
    {!Leon3.System.run} on its own machine.  Three things end a lane
    before its run does: convergence with the pass's own golden machine
    at a boundary cycle once its fault window has closed; the end of
    the trace, where a lane whose run outlives the
    trace (a hang candidate) is ejected at the trace's last settled
    cycle; and density, where a permanent-fault lane that makes more
    evaluations than the golden trace has deltas over a window of
    cycles is ejected at the window's end.  An ejected lane carries its
    complete state, for a scalar continuation that decides it, settling
    change-driven, with cycle-proof hang detection
    ([Leon3.System.run ~detect_loops:true]) or the timeout. *)

module C = Rtl.Circuit

type spec = {
  site : C.fault_site;
  model : C.fault_model;
  from_cycle : int;
  duration : int option;  (** [None] = permanent *)
}

type result = {
  stop : Leon3.System.stop_reason;
  matched : int;  (** reference events matched before the first mismatch *)
  stop_cycle : int;
  mismatch_cycle : int option;
  events : Sparc.Bus_event.t list;  (** data-side bus events, in order *)
}

type ejected = {
  e_tp : C.transplant;  (** circuit state + armed fault *)
  e_mem : Sparc.Memory.t;  (** the lane's full main-memory image *)
  e_iport : int * bool;  (** bus-driver countdown, ready_out *)
  e_dport : int * bool;
  e_matched : int;  (** reference events matched so far *)
  e_mismatch : int option;
  e_events_rev : Sparc.Bus_event.t list;  (** newest first *)
  e_writes : int;  (** write events among them *)
}
(** Everything {!Leon3.System.transplant} needs to continue an ejected
    lane from the cycle it was ejected at instead of restarting from
    cycle 0. *)

type outcome =
  | Done of result
  | Converged of int
      (** retired at this boundary cycle with a provably golden future:
          the run is silent *)
  | Ejected of ejected
      (** undecided at the trace's last settled cycle, or a dense
          permanent-fault lane at a window boundary before it: the
          lane's state at hand-over, for scalar continuation *)

val run :
  sys:Leon3.System.t ->
  prog:Sparc.Asm.program ->
  trace:C.trace ->
  reference:Sparc.Bus_event.t array ->
  max_cycles:int ->
  ?compare_reads:bool ->
  ?converge_every:int ->
  spec array ->
  outcome array * C.batch_stats
(** [run ~sys ~prog ~trace ~reference ~max_cycles specs] loads [prog]
    (fresh golden image at cycle 0 — the state [trace] was recorded
    from), arms one lane per spec and advances the batch until every
    lane retires or the trace ends.  At most [C.max_lanes] specs.

    [reference] is the golden stream each lane's events are compared
    against, in order, exactly as the scalar lockstep comparator does:
    the golden {e write} stream by default (a read is recorded but
    never compared), or with [compare_reads] (default false) the golden
    run's every data-side event, reads included.

    [converge_every] (default none: no lane converges) sets the
    boundary cycles, every positive multiple of it.  At a boundary
    cycle, after that cycle's terminal checks, a live lane retires as
    [Converged] when its fault window has closed by then, its circuit
    state equals the golden machine's ({!Rtl.Lanes.lane_golden}), its
    main memory has no overlay, both its bus drivers equal the golden
    replica's, and its matched count equals the golden run's reference
    events so far: its writes, and its reads too with [compare_reads].
    Permanent faults never converge.

    Dense lanes leave early: at every cycle that is a multiple of 256
    and before [C.trace_cycles trace - 1], after that cycle's terminal
    and convergence checks, a live lane with a permanent fault
    ([duration = None]) comes back [Ejected] at that cycle when it made
    more evaluations ({!Rtl.Lanes.lane_evals}) over the 256 cycles
    since the previous such cycle than the golden trace has deltas
    over them ({!Rtl.Lanes.golden_deltas}): a change-driven scalar run
    of the lane would pay about as much as golden's deltas, the pass
    more.  A bounded fault's lane never leaves early: it may still
    converge.

    Every lane still live at cycle [C.trace_cycles trace - 1], after
    that cycle's terminal checks, comes back [Ejected] with
    [C.transplant_cycle] equal to that cycle.

    The stats count the pass's lane evaluations, its lane-cycles and,
    in [bs_driven_lane_cycles], the lane-cycles spent outside the
    follow set. *)
