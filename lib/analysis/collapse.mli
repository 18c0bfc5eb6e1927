(** Structural fault collapsing.

    Classic stuck-at collapsing adapted to the word-level netlist: a
    permanent fault on a fan-out-free node is observationally
    equivalent to a fault on its single reader whenever the reader's
    evaluator provably forwards (or complements, or is controlled by)
    the faulted bit.  The equivalences are established by {e exhaustive
    probing} of the reader's evaluator — evaluators are pure functions
    of their dependency values, so a complete truth table is a proof,
    not a heuristic — which keeps campaign summaries byte-identical
    when only class representatives are simulated.

    Three rules, each requiring the source node to be fan-out-free and
    not an observation point:

    - {b forward}: the reader is an identity buffer of equal width —
      stuck-at-0/1 faults map to the same bit of the reader, same
      model;
    - {b complement}: the reader is a bitwise inverter — stuck-at
      polarities swap;
    - {b controlling value}: the reader has a 1-bit output and forcing
      one source bit to [c] fixes the output at [k] for {e every}
      combination of the remaining input bits — stuck-at-[c] on the
      source bit maps to stuck-at-[k] on the output (AND/OR-style
      gates, the bread and butter of gate-level collapsing).

    A fourth rule handles the nodes the first three never can — 1-bit
    combinational nodes {e with} fan-out, the signature shape of a
    gate-level netlist (every XOR input, every mux select):

    - {b dominance}: with a post-dominator tree toward the observation
      boundary ([dom]), a stuck-at on a fanned-out source [s] maps to
      a stuck-at on its immediate post-dominator [d] whenever
      exhaustively evaluating the reconvergence region between them
      (forward BFS capped at 24 vertices, external inputs capped at
      [min 8 max_probe_bits] bits, registers/memories/read ports
      inside the region cut and treated as free externals) proves
      that forcing [s] forces [d] to a constant.  Soundness rests on
      post-dominance: all divergence between the two faulty circuits
      is confined to vertices whose every path to an exit crosses the
      constant [d].

    Only stuck-at faults are collapsed.  A campaign turns a permanent
    open line into the stuck-at of the bit it captures before it
    consults the table.  [Bit_flip] faults are never collapsed: an
    enable-hold register downstream can re-latch a flipped value and
    diverge from the equivalent-looking fault on the reader.  Chains
    resolve transitively (representative ids strictly increase, so
    resolution terminates). *)

module C = Rtl.Circuit

type t

val build :
  ?max_probe_bits:int -> ?dom:Dominator.t -> Graph.t -> keep:(C.signal -> bool) -> t
(** Scan every combinational node and record the fault equivalences
    its evaluator proves.  [keep] marks signals that must never be
    collapsed {e away} (observation points: a fault there is read
    directly by the environment).  [max_probe_bits] (default 12) caps
    the truth-table size per node at [2^max_probe_bits] evaluations;
    wider nodes are simply not collapsed — the pass trades coverage
    for exactness, never the reverse.  [dom] enables the dominance
    rule; it must be built over the same graph, with exits matching
    [keep]. *)

val resolve : t -> C.fault_site -> C.fault_model -> C.fault_site * C.fault_model
(** Follow the equivalence chain to its representative.  Returns the
    argument unchanged for unmapped sites, [Cell] sites, [Open_line]
    and [Bit_flip]. *)

val mapped : t -> int
(** Number of (site, model) pairs with a recorded equivalence. *)
