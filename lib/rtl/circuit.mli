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

    The kernel has two settle loops:
    - the {e dense sweep} evaluates every comb node in schedule order,
      each through its evaluator, and applies the armed fault's rules.
      It runs at every settle of a {!reference} run — the reference
      engine, the oracle every accelerated verdict must equal — and
      at the first settle after a bulk state change ({!elaborate},
      {!reset}, {!restore} and so {!transplant}, {!inject},
      {!clear_fault}, {!coverage_start});
    - the {e change-driven settle} runs every other {!settle}: the
      golden run and faulty runs alike, among them the watchdog's
      continuation of a lane past the end of a golden trace.  It evaluates,
      in level order, only the comb nodes with a dependency that
      changed since the last settle (an input set to a new value, a
      register committed to a new value, a node this settle changed)
      and the read ports of memories whose content changed, and
      records traces and coverage from those changes alone, where they
      happen: a moved source as the settle starts, a comb node as the
      settle changes it.  An armed
      fault adds the seeds its rules need: a forced cell marks its
      memory when its content moves, a transformed source node is a
      seed when its value moves, and the faulted comb node is
      evaluated at every settle while the fault is armed.

    Every accelerated faulty run starts in {!Lanes}, which advances up to
    {!max_lanes} faulty machines as bit-lanes against a golden trace,
    on its own copy of the golden machine: a lanes pass never writes
    the circuit it starts from.  Both engines read one lowering
    ({!compiled_plan}) and one definition of the fault rules.

    The change-driven loops of both engines rely on one rule: {b a comb
    evaluator is a pure function of its dependency values}, and a read
    port's may also read its memory's content.
    Evaluators given to {!comb1} .. {!combn} must not read any other
    state (a cycle counter, a mutable cell, the environment); an
    evaluator that does would be re-run by the dense sweep but not by
    the change-driven settle.  {!probe_comb} relies on the same rule,
    and so do the node shapes ([lowering.shape]): {!elaborate} reads a
    one-bit node's truth table off its evaluator once, and both
    change-driven loops evaluate the node from that table, never
    calling the evaluator again.  Only the dense sweep calls every
    evaluator, so it stays the reference the shapes are checked
    against. *)

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
    probing, and the lane engine apply per gate output with no
    special cases.  All operands must be 1 bit wide ([Invalid_argument]
    otherwise). *)

val gate_not : t -> string -> signal -> signal
val gate_buf : t -> string -> signal -> signal
val gate_nand : t -> string -> signal -> signal -> signal
val gate_nor : t -> string -> signal -> signal -> signal

val gate_mux : t -> string -> sel:signal -> signal -> signal -> signal
(** [gate_mux c name ~sel a b] is [a] when [sel] is 1, else [b]. *)

val tap : t -> string -> signal -> int -> signal
(** [tap c name word i] is the one-bit node [(word lsr i) land 1]: an
    ordinary comb node over [word] (so its name, id, dependencies and
    evaluator are those of the equivalent {!comb1}), which the lowering
    also records as a tap of bit [i] ([lowering.shape]).  That record
    is what lets the lanes evaluate it for every lane at once: probing
    cannot prove that a function of a 32-bit word reads one bit of it.
    [Invalid_argument] unless [0 <= i < width word]. *)

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
    state, under the armed fault if any.  This is the change-driven
    settle: it evaluates only the fanout of what changed since the
    previous settle, plus the seeds of the armed fault, and the result
    equals the dense sweep's node for node.  The dense sweep runs
    only inside {!reference} and on the first settle after a bulk state
    change (see the loops above).  The change-driven settle allocates
    nothing beyond the growth of a recorded trace. *)

val reference : t -> (unit -> 'a) -> 'a
(** [reference c f] runs [f] on the reference engine: every {!settle}
    of [c] inside [f] is the dense sweep, whatever changed.  It is the
    one entry to the dense oracle ([Campaign.run_one] without a plan,
    and the tests' dense twins); the previous mode is restored when [f]
    returns or raises.  Values are those of the change-driven settle
    node for node, so a run may enter or leave it between settles. *)

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
    measures a run by the difference of two readings.  {!Lanes}
    settles are counted in {!batch_stats} instead. *)

val mem_read : t -> memory -> int -> int
(** Direct backdoor read (testing and environment models). *)

val mem_write : t -> memory -> int -> int -> unit
(** Direct backdoor write; still subject to an armed cell fault. *)

(** {2 State snapshots}

    A snapshot captures the complete sequential state of the circuit —
    every node value, every memory word and the cycle counter — so a
    run can be resumed from an intermediate point.  Snapshots taken on
    one circuit are valid on any other circuit built by the same
    deterministic construction (same netlist ⇒ same node numbering). *)

type snapshot = Machine.snapshot

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
    campaign can classify it silent without simulating it.  Nodes are
    recorded at settled states only; memory cells also at {!reset},
    which clears them. *)

type coverage

val coverage_start : t -> unit
(** Begin recording (clears any previous recording).  The next
    {!settle} is a dense sweep that records every node; after it, a
    change-driven settle records only the nodes whose value changed,
    which is exact because an unchanged value was recorded when it
    last changed.  So recording costs per changed node, not per node;
    a dense sweep ({!reference}) records every node. *)

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
    changed.  {!Lanes} advances its golden machine wholesale from the
    trace, so faulty lanes pay only for the nodes on which they differ
    from golden. *)

type trace = Machine.trace
(** Delta-compressed golden value trace.  Immutable once built; safe to
    share read-only across parallel campaign domains. *)

val trace_start : t -> unit
(** Begin recording a trace of every subsequent settled state.  The
    first recorded settle only primes the previous state: its cycle
    holds no deltas, so a trace does not depend on what the circuit ran
    before.  A change-driven settle then emits a delta for each comb
    node it changes, as it changes it, and for each source that moved
    since the last settle and differs from its last recorded value (a
    source set and restored between two settles emits nothing):
    recording costs per changed node, not per node.  The dense sweep
    compares every node with its last recorded value. *)

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

type write_port = { wp_we : int; wp_addr : int; wp_data : int }

type lowering = private {
  masks : int array;  (** per node: [2^width - 1] *)
  order : int array;  (** comb node ids in dependency order: the dense sweep *)
  order_eval : (int array -> int) array;  (** evaluator per [order] entry *)
  eval : (int array -> int) array;  (** per node: comb evaluator, [0] otherwise *)
  deps : int array array;  (** per node: comb dependencies, [[||]] otherwise *)
  max_deps : int;  (** longest [deps], at least 1 *)
  shape : int array;
      (** per node: how a one-bit node is evaluated without its
          evaluator, for the golden machine and for every lane at once
          (bit [l] of a word is lane [l]'s value), or {!shape_none}.
          - A truth table, for every one-bit comb node that is not a
            read port and has 1..3 dependencies, all distinct and one
            bit wide: bit [i] of the table is the value for dependency
            values [i = v0 + 2 v1 + 4 v2], in [deps] order.
            {!elaborate} derives it by probing the evaluator on all
            [2^k] inputs: exact by the purity rule.  The gate
            primitives' tables are {!shape_not} .. {!shape_mux}.
          - A {!tap}'s bit index, for a tap of a wider word (the only
            shaped nodes whose dependency is wider than one bit).
          The gate primitives and the taps of the gate-level netlist
          are shaped; packers, read ports and word-wide nodes are
          not. *)
  input : bool array;  (** per node: an external input *)
  rport_of : int array;  (** per node: the memory a read port reads, -1 *)
  fanout : int array array;  (** per node: deduplicated comb sink ids *)
  level : int array;  (** per node: comb level; sources 0, comb nodes >= 1 *)
  max_level : int;
  mem_readers : int array array;  (** per memory: its read-port node ids *)
  regs : int array;  (** register node ids *)
  reg_d : int array;  (** parallel to [regs]: data input *)
  reg_en : int array;  (** parallel to [regs]: enable, -1 when none *)
  mem_masks : int array;  (** per memory: word mask *)
  mem_ports : write_port array array;  (** per memory: write ports, creation order *)
}
(** The netlist lowered into dense arrays indexed by [(signal :> int)]
    and [(memory :> int)]: what {!settle}, {!clock} and {!Lanes}
    evaluate. *)

val compiled_plan : t -> lowering
(** The lowering, built once per elaboration; both engines read it.
    Do not mutate. *)

val shape_none : int
(** [lowering.shape] of a node evaluated only through its evaluator. *)

val shape_not : int
(** [lowering.shape] of a {!gate_not}; likewise {!shape_buf},
    {!shape_nand}, {!shape_nor} and {!shape_mux} ([~sel], then the two
    data inputs). *)

val shape_buf : int

val shape_nand : int

val shape_nor : int

val shape_mux : int

(** {2 Lane engine width and work counters (see {!Lanes})} *)

val max_lanes : int
(** 63: one native [int] keeps 63 usable lane bits next to the
    implicit golden machine. *)

type batch_stats = {
  bs_evals : int;  (** per-lane comb evaluations actually performed *)
  bs_sliced_evals : int;
      (** shaped-node evaluations, each made for all of the node's
          needed lanes at once with bitwise operations; their lanes
          are counted in [bs_evals] *)
  bs_dense_evals : int;
      (** evaluations [lanes] independent dense sweeps would have cost
          over the same cycles *)
  bs_lane_cycles : int;  (** live lanes summed over clocked cycles *)
  bs_driven_lane_cycles : int;
      (** the lane-cycles whose off-core world (bus drivers, main
          memory, bus inputs) was driven lane by lane.  {!Lanes.stats}
          counts every lane-cycle; [Batch.run] counts only lanes
          outside its follow set, whose off-core state differs from
          golden's. *)
}

(** {2 Lane → scalar transplant} *)

type transplant = Machine.transplant
(** A lane's extracted state — node values, memory contents, cycle
    counter — together with a private copy of its armed fault (so
    transient-window bookkeeping such as an applied SEU or a captured
    open-line bit carries over instead of re-triggering); see
    {!Lanes.eject}. *)

val transplant : t -> transplant -> unit
(** Overwrite a scalar circuit's state and armed fault from a
    transplant.  The circuit must come from the same deterministic
    construction (same netlist) as the lanes it was ejected from; the
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
val node_count : t -> int
(** Total number of signal nodes (netlist size proxy for area). *)

val injection_bits : t -> prefix:string -> fault_site list
(** Every (node, bit) site whose hierarchical name starts with
    [prefix], unnamed.  Memory cells are not included (enumerate them
    explicitly if wanted). *)

val site_name : t -> fault_site -> string
(** ["name[bit]"] for a node site, ["memory[word][bit]"] for a cell. *)

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
