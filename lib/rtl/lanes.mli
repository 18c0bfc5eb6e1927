(** Bit-parallel fault lanes (PPSFP): up to {!Circuit.max_lanes}
    faulty machines advanced together against one golden trace.

    A lanes pass copies the golden machine — node values, memory
    contents, cycle counter — from a circuit a fresh golden [load] has
    settled at cycle 0, the state the trace was recorded from, and
    advances that copy wholesale from the trace deltas, never
    re-evaluating it.  Each {e lane} stores only the nodes on which it
    currently diverges from golden: a per-node 63-bit divergence mask
    plus lane values — one word per one-bit node (bit [l] is lane
    [l]'s value), a dense per-lane row for each wider node.  A settle
    propagates lane sets through the levelized schedule with bitwise
    ORs, so a clean (node, lane) pair costs nothing and a campaign of
    thousands of mostly-convergent faulty runs becomes dozens of
    passes.  A one-bit node with a shape ([Circuit.lowering.shape]: the
    gate cells and taps of the gate-level netlist) is evaluated for all
    of its lanes at once in a few bitwise operations, PPSFP-style; any
    other node one lane at a time through its evaluator.  Memory
    divergence is tracked per lane with sparse overlays above the
    golden (base) arrays.

    The pass never writes the circuit it started from: the circuit
    stays in its loaded state, usable by the scalar engine throughout.
    Both engines read the circuit's one lowering
    ({!Circuit.compiled_plan}) and apply the same node and cell fault
    rules, so fault semantics are the scalar engine's by construction.

    Lanes only run where the golden trace does: lanes still live at the
    trace's last settled cycle are handed over to the scalar engine
    ({!eject}, {!Circuit.transplant}), which decides them with its own
    hang detection, settling change-driven under the lane's fault.  A
    caller may hand a lane over earlier, at any settled cycle; the
    per-lane evaluation count ({!lane_evals}) against the golden
    trace's deltas ({!golden_deltas}) tells it when a lane costs more
    here than a scalar run would. *)

type t

val start : Circuit.t -> Circuit.trace -> t
(** [start c trace] copies [c]'s golden machine; [c] must sit at cycle
    0 in the trace's initial settled state (a fresh golden [load]), with
    no fault armed.  No lanes are active until {!arm}. *)

val arm :
  t -> int -> ?from_cycle:int -> ?duration:int -> Circuit.fault_site -> Circuit.fault_model -> unit
(** [arm t lane site model] puts one faulty machine into [lane]
    (0 .. [Circuit.max_lanes - 1]); same fault semantics as
    {!Circuit.inject}.  The lane starts as an exact copy of the golden
    machine. *)

val settle : t -> unit
(** Propagate every active lane's divergence cone (the golden values
    are already settled, straight from the trace).  Work is paid per
    diverged (node, lane) pair, change-driven per lane: a node is
    evaluated for a lane only when the lane's own view of one of its
    dependencies moved this cycle and the lane diverges somewhere across
    the node's cut, or when the lane has a fault armed on it.  A golden
    move of a node moves the views of the lanes clean on it, not of a
    lane that holds its own value there; a lane's own value change
    moves that lane alone.  A comb node golden moved is also evaluated
    for the lanes it moved that diverge on one of its dependencies: such
    a lane keeps its own value, which no longer equals golden's.  The
    settle is seeded at the divergence frontier: a move queues only the
    sinks whose cut (the node and its dependencies) holds some diverged
    lane, and the read ports of memories that hold an overlay; a lane
    that changes during the settle queues its own fanout.  A lane with a
    fault on a shaped node has its bit fixed up by the same fault rule
    as the scalar engine's.

    A memory read port re-derives a lane's value only when
    - the lane's view of the array moved since the last settle: an
      overlay entry set, changed or dropped (lane writes, forced cell
      faults, preserved views), or a golden write to a cell the lane
      holds an overlay entry for or while the lane reads through a
      diverged address; or
    - golden's address or the lane's own address moved this cycle, and
      the lane diverges on the address or on the port, or holds an
      overlay entry at the golden address.
    Every other lane reads the golden cell through the golden address,
    so its value is the golden trace's.  Another lane's move of the
    address re-derives nothing: what a lane costs does not depend on
    the other lanes of its pass ({!lane_evals}).  An armed cell fault alone
    triggers no re-derivation: a stuck-at cell that is never read, or
    whose forced value equals its content, costs no read-port work. *)

val clock : t -> unit
(** Commit registers and memory writes for every active lane, then
    advance the golden machine one cycle from the trace.  Raises
    [Invalid_argument] from the trace's last settled cycle
    ([trace_cycles - 1]): there is no golden state to advance to, so
    the remaining lanes must be ejected to scalar runs instead. *)

val value : t -> Circuit.signal -> int -> int
(** [value t s lane]: lane's settled view of a node. *)

val golden : t -> Circuit.signal -> int
(** The golden machine's settled value of a node at {!cycle}. *)

val diverged : t -> Circuit.signal -> int
(** [diverged t s]: the mask of active lanes (bit [l] for lane [l])
    carrying a divergence mark on node [s].  A lane outside the mask
    sees the golden value; a lane inside it may have healed onto the
    golden value since it was marked. *)

val cycle : t -> int
(** Cycles clocked since {!start}. *)

val set_input : t -> Circuit.signal -> int -> int -> unit
(** [set_input t s lane v]: drive an input as seen by one lane (the
    golden input value arrives via the trace delta). *)

val retire : t -> int -> unit
(** Drop a lane (terminal verdict reached): clears its divergence bits
    and memory overlays so the remaining lanes' settles no longer pay
    for it. *)

val lane_golden : t -> int -> bool
(** [lane_golden t lane]: the live lane's settled state equals the
    golden machine's at the current cycle — every node value and every
    memory cell.  Values are compared (a lane may carry a divergence
    mark on a node whose golden value has caught up with it).  Together
    with the off-core state this is exact convergence: once the lane's
    fault window has closed, its future is golden. *)

val eject : t -> int -> Circuit.transplant
(** Extract a live lane's complete settled state, at the current
    cycle, for scalar continuation ({!Circuit.transplant}).  The lane
    is not retired; callers typically {!retire} it afterwards. *)

val lane_evals : t -> int -> int
(** [lane_evals t lane]: the evaluations made in lane slot [lane] since
    {!start}, exactly: one per word-level evaluation of a node for the
    lane, and one per bit-sliced evaluation the lane was needed in.
    Summed over the slots, it is the pass's [bs_evals].  A lane's count
    depends on its own fault and inputs alone: it equals that of a pass
    holding the lane by itself. *)

val golden_deltas : t -> int
(** The golden trace deltas the golden machine has taken since {!start}
    (cycles [1 .. cycle]): the nodes whose golden value moved, which is
    what a change-driven scalar run of the same cycles pays for. *)

val cut_exact : t -> bool
(** A consistency check for tests: every node's divergence-frontier
    count — how many of the node and its dependencies carry a nonzero
    divergence mask, which decides whether a move of a dependency seeds
    the node at the next {!settle} — equals a recount.  A count that
    drifts up only wastes work; one that drifts down would skip
    evaluations. *)

val stats : t -> Circuit.batch_stats
(** Lane evaluations performed so far, how many node evaluations made
    them bit-sliced, what dense sweeps would have cost, and the
    lane-cycles clocked ([bs_driven_lane_cycles] =
    [bs_lane_cycles]: the pass does not know which lanes its caller
    drove). *)
