(** Structural RTL simulation kernel.

    A circuit is a netlist of named, width-annotated nodes — external
    inputs, constants, combinational functions and clocked registers —
    plus word-organised memories with combinational read ports and
    clocked write ports.  After {!elaborate} the combinational nodes
    are scheduled in dependency order and the circuit is stepped with
    [settle]/[clock] pairs, exactly like an HDL simulator with a single
    clock domain.

    Every node is a {e fault-injection point}: a single permanent fault
    (stuck-at-0, stuck-at-1 or open-line) can be armed on any bit of
    any node or memory cell from a given cycle onwards, reproducing the
    simulator-command injection technique of Jenn et al. (MEFISTO) that
    the paper uses.  Open line is modelled as charge retention: the bit
    keeps its previous settled value (for cells: writes to the bit are
    lost).

    The kernel has three settle loops:
    - the {e dense sweep} evaluates every comb node in schedule order.
      {!settle} runs it whenever a fault is armed — it is the reference
      oracle every accelerated verdict must equal, and it continues
      faulty runs past the end of a golden trace — and for the first
      settle after a bulk state change ({!elaborate}, {!reset},
      {!restore} and so {!transplant}, {!inject}, {!clear_fault},
      {!batch_stop}, {!coverage_start});
    - the {e change-driven settle} runs every other {!settle}, which
      in practice is the golden run: it evaluates, in level order, only
      the comb nodes with a dependency that changed since the last
      settle (an input set to a new value, a register committed to a
      new value, a node this settle changed) and the read ports of
      memories whose content changed, and records traces and coverage
      from those changes alone;
    - {!batch_settle} advances up to {!max_lanes} faulty machines as
      bit-lanes against a recorded golden trace, paying only for each
      lane's divergence cone; it runs every faulty run but the dense
      reference and the continuation of ejected lanes.

    Both change-driven loops share one levelized worklist and rely on
    one rule: {b a comb evaluator is a pure function of its dependency
    values}, and a read port's may also read its memory's content.
    Evaluators given to {!comb1} .. {!combn} must not read any other
    state (a cycle counter, a mutable cell, the environment); an
    evaluator that does would be re-run by the dense sweep but not by
    the change-driven settle.  {!probe_comb} relies on the same rule. *)

type t

type signal = private int
(** Node handle.  The representation is exposed read-only ([:> int])
    so analysis passes can index dense per-node arrays; handles are
    the 0-based creation order, which is also why they are portable
    across circuits built by the same deterministic construction. *)

type memory = private int
(** Memory handle; same creation-order representation as {!signal}. *)

exception Combinational_cycle of string
(** Raised by {!elaborate}; the payload names a node on the cycle. *)

exception Not_elaborated
exception Already_elaborated

val create : string -> t
(** [create name] makes an empty circuit. *)

val name : t -> string

(** {2 Construction}

    All constructors must be called before {!elaborate}.  Node names
    are prefixed by the current scope path, ["iu.ex.alu_result"]. *)

val scoped : t -> string -> (unit -> 'a) -> 'a
(** [scoped c scope f] runs [f] with [scope] pushed on the name
    prefix stack. *)

val input : t -> string -> int -> signal
(** [input c name width] declares an externally driven port. *)

val const : t -> string -> int -> int -> signal
(** [const c name width value]. *)

val comb1 : t -> string -> int -> signal -> (int -> int) -> signal
val comb2 : t -> string -> int -> signal -> signal -> (int -> int -> int) -> signal
val comb3 :
  t -> string -> int -> signal -> signal -> signal -> (int -> int -> int -> int) -> signal
val comb4 :
  t -> string -> int -> signal -> signal -> signal -> signal ->
  (int -> int -> int -> int -> int) -> signal
val combn : t -> string -> int -> signal array -> (int array -> int) -> signal
(** [combn c name width deps f] — [f] receives the dependency values
    {e positionally}: element [i] of its argument is the value of
    [deps.(i)].  The argument array is reused between evaluations, so
    [f] must not retain it.  Results are truncated to [width] bits by
    the kernel (as are all comb results). *)

(** {2 Gate primitives}

    One-bit NAND / NOR / NOT / MUX cells (plus an identity buffer) —
    the cell library of the gate-level elaboration.  Each is an
    ordinary comb node, so every fault model, the coverage prefilter,
    probing, and the batch engine apply per gate output with no
    special cases.  All operands must be 1 bit wide ([Invalid_argument]
    otherwise). *)

val gate_not : t -> string -> signal -> signal
val gate_buf : t -> string -> signal -> signal
val gate_nand : t -> string -> signal -> signal -> signal
val gate_nor : t -> string -> signal -> signal -> signal

val gate_mux : t -> string -> sel:signal -> signal -> signal -> signal
(** [gate_mux c name ~sel a b] is [a] when [sel] is 1, else [b]. *)

val reg : t -> string -> width:int -> ?init:int -> unit -> signal
(** Declare a clocked register; its data input is attached later with
    {!connect} (registers may sit on feedback paths). *)

val connect : t -> signal -> ?en:signal -> d:signal -> unit -> unit
(** [connect c r ~en ~d ()] attaches register [r]'s next-value input; when
    the optional enable is 0 the register holds.  Each register must be
    connected exactly once. *)

val memory : t -> string -> words:int -> width:int -> memory
(** Word-organised storage (register file, cache tag/data arrays). *)

val read_port : t -> string -> memory -> signal -> signal
(** Combinational (asynchronous) read port: output follows the
    addressed cell.  Out-of-range addresses read zero. *)

val write_port : t -> memory -> we:signal -> addr:signal -> data:signal -> unit
(** Clocked write port, committed on {!clock} when [we] is non-zero.
    Out-of-range addresses are discarded. *)

(** {2 Elaboration and simulation} *)

val elaborate : t -> unit
(** Freeze the netlist and schedule combinational nodes.  Checks that
    every register is connected and that the combinational graph is
    acyclic. *)

val reset : t -> unit
(** Restore registers to their init values, clear memories, inputs and
    the cycle counter (the armed fault, if any, is kept). *)

val set_input : t -> signal -> int -> unit

val settle : t -> unit
(** Propagate combinational values from the current register/input
    state.  With no fault armed this is the change-driven settle: it
    evaluates only the fanout of what changed since the previous
    settle, and the result equals the dense sweep's node for node.
    While a fault is armed, and on the first settle after a bulk state
    change, it is the dense sweep (see the loops above).  The
    change-driven settle allocates nothing beyond the growth of a
    recorded trace. *)

val clock : t -> unit
(** Commit register next-values and memory writes from the settled
    values, then advance the cycle counter.  Call {!settle} again
    before reading outputs. *)

val value : t -> signal -> int
(** Settled value of a node. *)

val cycle : t -> int
(** Number of {!clock} calls since reset. *)

type settle_stats = {
  ss_evals : int;  (** comb evaluations {!settle} performed *)
  ss_dense_evals : int;
      (** comb nodes × settles: what dense sweeps would have cost *)
}

val settle_stats : t -> settle_stats
(** Cumulative counts over every {!settle} since {!create}; a caller
    measures a run by the difference of two readings.  {!batch_settle}
    is counted in {!batch_stats} instead. *)

val mem_read : t -> memory -> int -> int
(** Direct backdoor read (testing and environment models). *)

val mem_write : t -> memory -> int -> int -> unit
(** Direct backdoor write; still subject to an armed cell fault. *)

(** {2 State snapshots}

    A snapshot captures the complete sequential state of the circuit —
    every node value, every memory word and the cycle counter — so a
    run can be resumed from an intermediate point.  Snapshots taken on
    one circuit are valid on any other circuit built by the same
    deterministic construction (same netlist ⇒ same node numbering),
    which is what lets parallel campaign domains share golden
    checkpoints. *)

type snapshot

val snapshot : t -> snapshot
(** Copy the current settled state. *)

val restore : t -> snapshot -> unit
(** Overwrite node values, memory contents and the cycle counter from
    a snapshot.  The armed fault (if any) is left untouched. *)

val state_equal : t -> snapshot -> bool
(** Exact equality of the live state against a snapshot; it
    short-circuits on the first differing word. *)

val same_state : t -> snapshot -> bool
(** Like {!state_equal} but ignoring the cycle counter: true when the
    machine has re-entered a state it passed through earlier.  This is
    what hang-loop detection compares — a state revisited with
    identical future inputs proves the trajectory is periodic.  When an
    observed cone is set ({!set_observed_cone}), the comparison is
    restricted to it. *)

val set_observed_cone : t -> signal list -> unit
(** Declare the signals the environment reads and restrict recurrence
    comparison to their backward closure: every node some root depends
    on (combinationally or through registers), every memory one of the
    cone's read ports reads — plus, transitively, those memories'
    write-port drivers.  State outside the cone is pure accounting
    (e.g. a retired-instruction counter): it can keep evolving without
    ever influencing an observable signal, a relevant memory, or its
    own feed-back into the cone, so a cone-state recurrence still
    proves the observable trajectory is periodic.  Affects
    {!same_state} and {!content_hash}; {!state_equal} and
    {!snapshot}/{!restore} stay full-state. *)

val content_hash : t -> int
(** Deterministic hash of the sequential state, ignoring the cycle
    counter — the fingerprint that pairs with {!same_state} for
    cycle-proof hang detection, where states at different cycles must
    fingerprint equal. *)

(** {2 Fault injection} *)

type fault_model =
  | Stuck_at_0
  | Stuck_at_1
  | Open_line
  | Bit_flip
      (** inversion of the bit while active; combined with
          [duration = Some 1] this is a single-event upset (a register
          or cell keeps the corrupted value after the window closes) *)

type fault_site =
  | Node of signal * int  (** node, bit *)
  | Cell of memory * int * int  (** memory, word index, bit *)

val inject : t -> ?from_cycle:int -> ?duration:int -> fault_site -> fault_model -> unit
(** Arm the (single) fault: active from [from_cycle] for [duration]
    cycles ([None] = permanent).  Replaces any previous fault. *)

val clear_fault : t -> unit

val fault_model_name : fault_model -> string

(** {2 Value coverage (activation prefilter)}

    While recording, the kernel accumulates per-node and per-cell
    bitmasks of values observed at every settled state (and, for
    cells, at every content change).  A permanent fault whose forced
    value was always the observed value provably never activates: the
    faulty run's trajectory is identical to the recorded one, so a
    campaign can classify it silent without simulating it. *)

type coverage

val coverage_start : t -> unit
(** Begin recording (clears any previous recording).  The next
    {!settle} is a dense sweep that records every node; after it, a
    change-driven settle records only the nodes whose value changed,
    which is exact because an unchanged value was recorded when it
    last changed.  So recording costs per changed node, not per node;
    while a fault is armed each settle records every node. *)

val coverage_stop : t -> coverage
(** Stop recording and return the accumulated coverage. *)

val never_activates : coverage -> fault_site -> fault_model -> bool
(** [never_activates cov site model] is [true] when the fault is
    provably inactive over any run whose observed values are covered
    by [cov]: stuck-at-0 on a bit never seen 1, stuck-at-1 on a bit
    never seen 0, open-line on a bit that never toggled.  [Bit_flip]
    always activates. *)

(** {2 Golden value traces}

    A golden run can additionally record its complete per-cycle settled
    state as a {e trace}: per-cycle value deltas, only the nodes that
    changed.  The batch engine below advances its golden machine
    wholesale from the trace, so faulty lanes pay only for the nodes on
    which they differ from golden. *)

type trace
(** Delta-compressed golden value trace.  Immutable once built; safe to
    share read-only across parallel campaign domains. *)

val trace_start : t -> unit
(** Begin recording a trace of every subsequent settled state.  The
    first recorded settle only primes the previous state: its cycle
    holds no deltas, so a trace does not depend on what the circuit ran
    before.  A change-driven settle then compares only the nodes that
    changed, emitting a delta where a value differs from its last
    recorded one (a value set and restored between two settles emits
    nothing): recording costs per changed node, not per node.  The
    dense sweep compares every node. *)

val trace_stop : t -> trace
(** Stop recording and freeze the trace. *)

val trace_cycles : trace -> int
(** Number of settled cycles recorded (cycles [0 .. n-1]). *)

val trace_deltas : trace -> int -> (signal * int) array
(** [trace_deltas tr c]: the (node, value) pairs recorded for cycle [c],
    each node whose settled value differs from its value at the
    previous recorded settle.  Within a cycle the order is unspecified
    (a change-driven settle emits in level order, the dense sweep in
    node order).  The first recorded cycle, cycle 0 of a golden run,
    holds none. *)

type replay_plan = {
  rp_fanout : int array array;
      (** per node: deduplicated combinational sink ids *)
  rp_level : int array;  (** per node: combinational level (sources = 0) *)
  rp_max_level : int;
  rp_mem_readers : int array array;  (** per memory: its read-port node ids *)
}
(** The levelized schedule the batch engine evaluates divergence cones
    with.  [Analysis.Graph.replay_plan] builds the same record from the
    structural views (the edge extraction that powers cone pruning). *)

val compiled_plan : t -> replay_plan
(** The levelized schedule the kernel lowered from the netlist at
    {!elaborate} — field-for-field identical to what
    [Analysis.Graph.replay_plan] builds from the structural views, but
    available without constructing the dependency graph.  Built once
    per elaboration; do not mutate. *)

(** {2 Bit-parallel fault batching (PPSFP)}

    The batch engine packs up to {!max_lanes} faulty machines next to
    the golden machine and advances them all against one golden trace:
    the golden state lives in the circuit's own values (advanced
    wholesale from the trace deltas, never re-evaluated), and each
    {e lane} stores only the nodes on which it currently diverges — a
    per-node 63-bit divergence mask plus a dense lane-value store.  A
    batch settle propagates lane sets through the levelized schedule
    with bitwise ORs, so a clean (node, lane) pair costs nothing and a
    campaign of thousands of mostly-convergent faulty runs becomes
    dozens of passes.  Memory divergence is tracked per lane with
    sparse overlays above the golden (base) arrays.

    A batch only runs where the golden trace does: lanes still live at
    the trace's last settled cycle are handed over to the scalar engine
    ({!batch_eject}/{!transplant}), which decides them with its own
    hang detection.

    While a batch is armed the scalar entry points ([reset], [settle],
    [clock], [set_input], [inject], [restore], [mem_write], trace
    control) are rejected; use the [batch_*] variants.  The
    circuit must sit at cycle 0 in the trace's initial settled state
    when the batch starts (a fresh golden [load]).  Fault semantics are
    the scalar engines' by construction: every engine applies the same
    node and cell fault rules. *)

val max_lanes : int
(** 63: one native [int] keeps 63 usable lane bits next to the
    implicit golden machine. *)

type batch_stats = {
  bs_evals : int;  (** per-lane comb evaluations actually performed *)
  bs_dense_evals : int;
      (** evaluations [lanes] independent dense sweeps would have cost
          over the same cycles *)
}

val batch_start : t -> trace -> unit
(** Arm the batch engine against a golden trace.  No lanes are active
    until {!batch_arm}. *)

val batch_arm :
  t -> int -> ?from_cycle:int -> ?duration:int -> fault_site -> fault_model -> unit
(** [batch_arm c lane site model] puts one faulty machine into [lane]
    (0 .. [max_lanes - 1]); same fault semantics as {!inject}.  The
    lane starts as an exact copy of the golden machine. *)

val batch_settle : t -> unit
(** Propagate every active lane's divergence cone (the golden values
    are already settled, straight from the trace). *)

val batch_clock : t -> unit
(** Commit registers and memory writes for every active lane, then
    advance the golden machine one cycle from the trace.  Raises
    [Invalid_argument] from the trace's last settled cycle
    ([trace_cycles - 1]): there is no golden state to advance to, so
    the remaining lanes must be ejected to scalar runs instead. *)

val batch_value : t -> signal -> int -> int
(** [batch_value c s lane]: lane's settled view of a node. *)

val batch_set_input : t -> signal -> int -> int -> unit
(** [batch_set_input c s lane v]: drive an input as seen by one lane
    (the golden input value arrives via the trace delta). *)

val batch_retire : t -> int -> unit
(** Drop a lane from the batch (terminal verdict reached): clears its
    divergence bits and memory overlays so the remaining lanes' settles
    no longer pay for it. *)

val batch_active : t -> int
(** Mask of live lanes (0 when no batch is armed). *)

val batch_armed : t -> bool

val batch_lane_golden : t -> int -> bool
(** [batch_lane_golden c lane]: the live lane's settled state equals
    the golden machine's at the current cycle — every node value and
    every memory cell.  Values are compared (a lane may carry a
    divergence mark on a node whose golden value has caught up with
    it).  Together with the off-core state this is exact convergence:
    once the lane's fault window has closed, its future is golden. *)

val batch_stop : t -> batch_stats
(** Disarm the batch and return its accumulated statistics.  The
    circuit is left mid-trace (golden values at the current cycle);
    callers re-[load] before the next use. *)

(** {2 Lane → scalar transplant} *)

type transplant
(** A lane's extracted state — node values, memory contents (base plus
    overlay), cycle counter — together with a private copy of its armed
    fault (so transient-window bookkeeping such as an applied SEU or a
    captured open-line bit carries over instead of re-triggering). *)

val batch_eject : t -> int -> transplant
(** Extract a live lane's complete settled state for scalar
    continuation.  The lane is not retired; callers typically
    {!batch_retire} or {!batch_stop} afterwards. *)

val transplant : t -> transplant -> unit
(** Overwrite a scalar circuit's state and armed fault from a
    transplant.  The circuit must come from the same deterministic
    construction (same netlist) as the batch it was ejected from; the
    resulting state is already settled — do not re-[settle]. *)

val transplant_cycle : transplant -> int
(** The cycle counter captured at ejection. *)

(** {2 Introspection} *)

val signals : t -> (string * signal * int) list
(** All nodes: [(hierarchical name, signal, width)], in creation
    order.  Includes inputs, constants, combs and registers. *)

val memories : t -> (string * memory * int * int) list
(** [(name, memory, words, width)]. *)

val signal_width : t -> signal -> int
val signal_name : t -> signal -> string
val find_signal : t -> string -> signal option
val node_count : t -> int
(** Total number of signal nodes (netlist size proxy for area). *)

val injection_bits : t -> prefix:string -> (fault_site * string) list
(** Every (node, bit) site whose hierarchical name starts with
    [prefix]; the string is ["name[bit]"].  Memory cells are not
    included (enumerate them explicitly if wanted). *)

(** {2 Structural views (static analysis)}

    The functions below expose the elaborated netlist as data — node
    kinds with their dependencies, register data/enable inputs, and
    both directions of every memory port — so an external pass can
    rebuild the exact dependency graph the simulator executes.  All of
    them require an elaborated circuit ({!Not_elaborated} otherwise). *)

type node_view =
  | V_input
  | V_const of int
  | V_comb of signal array
      (** positional dependencies, exactly the values the evaluator
          reads (a read port additionally reads its memory — see
          {!read_port_memory}) *)
  | V_register of { d : signal; en : signal option; init : int }

val node_view : t -> signal -> node_view

val read_port_memory : t -> signal -> memory option
(** [Some m] when the node is a read port of memory [m].  Read-port
    evaluators close over the memory content, so this edge is {e not}
    in their [V_comb] dependency array — graph builders must add it. *)

val write_ports : t -> memory -> (signal * signal * signal) list
(** The [(we, addr, data)] triples of a memory's write ports, in
    creation order. *)

val probe_comb : t -> signal -> int array -> int
(** [probe_comb c s values] applies node [s]'s combinational evaluator
    to [values] (indexed by [(signal :> int)]; only the node's
    dependency slots are read) and returns the {e unmasked} result —
    callers see any bits a width-truncating function would drop.  The
    simulator state is not touched.  Rejects read ports (their result
    depends on memory content, not just [values]) and non-comb nodes
    with [Invalid_argument].  Every other evaluator is a pure function
    of its dependency values, which is what makes exhaustive probing
    (truth tables for fault collapsing, constant detection for lint)
    exact. *)
