(* The representation {!Circuit} and {!Lanes} share: a machine state
   (node values, memory contents, cycle counter), the golden trace one
   records and the other replays, a lane's transplant into a scalar
   circuit, and the fault record with the one definition of its rules.
   Both engines read the same lowered netlist, {!Circuit.lowering}. *)

(* --- machine state --- *)

type snapshot = {
  snap_values : int array;
  snap_mems : int array array;
  snap_cycle : int;
}

(* --- golden value trace --- *)

(* A trace is the golden run's complete per-cycle settled state,
   delta-compressed: for every cycle the set of nodes whose value
   changed (packed [(id << 32) | value]).  The lane engine starts from
   the cycle-0 state a fresh [load] settles into, advances its golden
   machine by these deltas and commits golden memory writes itself, so
   the deltas are all it needs.  The first recorded settle only primes
   the previous state, so cycle 0 holds no deltas and a recording does
   not depend on what the circuit ran before.  The deltas stay in the
   fixed-size chunks they were recorded into (delta [i] is
   [tr_delta.(i lsr trace_chunk_bits).(i land (trace_chunk - 1))]): a
   recording is never copied into one flat array. *)
let trace_chunk_bits = 16

let trace_chunk = 1 lsl trace_chunk_bits

type trace = {
  tr_len : int;  (* settled cycles recorded: 0 .. tr_len-1 *)
  tr_delta : int array array;  (* chunks of [trace_chunk] deltas *)
  tr_dend : int array;  (* per cycle: end offset of its delta run *)
}

(* --- bit-sliced node shapes --- *)

(* [Circuit.lowering]'s per-node [shape]: how a one-bit node can be
   evaluated without its evaluator, for the golden machine and for
   every lane at once (bitwise operations on a word whose bit [l] is
   lane [l]'s value).  [shape_none] for a node that cannot;
   [shape_table k tt] for a node over [k] (1..3) distinct one-bit
   dependencies, where bit [i] of [tt] is the output for dependency
   values [i = d0 + 2 d1 + 4 d2]; [shape_tap_of i] for a tap of bit [i]
   of a wider word.  The layout is defined here alone.  The settle loops
   decode it with the constants below rather than with calls (a call
   into another module is indirect in a build without cross-module
   optimisation): a shape is a tap when it is at least [shape_tap], and
   its low bits are then the bit index; a table's low bits are [tt],
   its arity sits above them. *)
let shape_none = -1

let shape_tap = 1 lsl 10

let shape_tap_bits = shape_tap - 1

let shape_table k tt = (k lsl 8) lor tt

let shape_tap_of i = shape_tap lor i

(* The gate cells' tables, deps in builder order: NOT a, BUF a,
   NAND a b, NOR a b, MUX (sel, a, b) = sel ? a : b. *)
let shape_not = shape_table 1 0b01

let shape_buf = shape_table 1 0b10

let shape_nand = shape_table 2 0b0111

let shape_nor = shape_table 2 0b0001

let shape_mux = shape_table 3 0b1101_1000

(* --- fault record and rules --- *)

type fault_model = Stuck_at_0 | Stuck_at_1 | Open_line | Bit_flip

type fault_site = Node of int * int | Cell of int * int * int

type fault = {
  site : fault_site;
  model : fault_model;
  from_cycle : int;
  duration : int option;  (** [None] = permanent *)
  mutable frozen : int option;
      (** open-line: captured bit value; bit-flip cells: applied marker *)
}

(* The rules below are defined once and called by both engines — the
   scalar circuit through its armed fault, the lane engine through each
   lane's own — so the dense oracle and the lanes agree on fault
   semantics by construction.  [cyc] is the calling engine's cycle
   counter. *)

let fault_active ~cyc f =
  cyc >= f.from_cycle && match f.duration with None -> true | Some d -> cyc < f.from_cycle + d

let transform_bit f ~bit v =
  match f.model with
  | Stuck_at_0 -> Bitops.clear_bit bit v
  | Stuck_at_1 -> Bitops.set_bit bit v
  | Bit_flip -> v lxor (1 lsl bit)
  | Open_line -> (
      match f.frozen with
      | Some frozen -> Bitops.update_bit bit (frozen <> 0) v
      | None ->
          (* Capture the floating value at activation. *)
          let b = Bitops.bit bit v in
          f.frozen <- Some b;
          v)

(* A freshly evaluated value of node [id] under [fault]. *)
let node_fault ~cyc fault id v =
  match fault with
  | Some ({ site = Node (s, bit); _ } as f) when s = id && fault_active ~cyc f ->
      transform_bit f ~bit v
  | Some _ | None -> v

(* The value a write of [v] to cell [(m, idx)] stores under [fault],
   given the cell's pre-write content [cur]. *)
let cell_write ~cyc fault m idx ~cur v =
  match fault with
  | Some ({ site = Cell (fm, fidx, bit); _ } as f)
    when fm = m && fidx = idx && fault_active ~cyc f -> (
      match f.model with
      | Stuck_at_0 -> Bitops.clear_bit bit v
      | Stuck_at_1 -> Bitops.set_bit bit v
      | Bit_flip -> v
      (* an SEU corrupts content once, not the write path *)
      | Open_line ->
          (* The cell bit is disconnected: the write does not change it. *)
          Bitops.update_bit bit (Bitops.bit bit cur <> 0) v)
  | Some _ | None -> v

(* The content an active cell fault [f] forces into its cell at a
   settle, given the current content [cur], or [None] when it forces
   nothing: stuck-at bits are forced so reads observe them even without
   an intervening write; a single-event upset inverts the content
   exactly once (the fault's [frozen] marker records that it has); an
   open line acts on writes only. *)
let cell_force f ~bit cur =
  match f.model with
  | Stuck_at_0 -> Some (Bitops.clear_bit bit cur)
  | Stuck_at_1 -> Some (Bitops.set_bit bit cur)
  | Bit_flip when f.frozen = None ->
      f.frozen <- Some 1;
      Some (cur lxor (1 lsl bit))
  | Bit_flip | Open_line -> None

(* --- lane -> scalar transplant --- *)

(* A lane's settled state with a private copy of its fault, so
   transient-window bookkeeping (an applied SEU, a captured open-line
   bit) carries over instead of re-triggering. *)
type transplant = { tp_snap : snapshot; tp_fault : fault option }

let copy_fault f = { f with frozen = f.frozen }
