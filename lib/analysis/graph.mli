(** Dependency-graph extraction over an elaborated {!Rtl.Circuit}.

    The simulator executes an implicit graph: comb evaluators read
    their dependency slots, registers latch their [d]/[en] inputs,
    write ports move settled values into memories and read ports move
    memory content back into the netlist.  This module materialises
    that graph once — both adjacency directions, edge kinds, and
    topological levels of the combinational part — so static passes
    (cone-of-influence pruning, fault collapsing, lint) can run
    without touching the simulator. *)

module C = Rtl.Circuit

type edge_kind =
  | Comb_dep  (** dependency slot of a combinational evaluator *)
  | Reg_d  (** register next-value input *)
  | Reg_en  (** register write enable *)
  | Mem_we  (** write-port enable into a memory *)
  | Mem_addr  (** write-port address into a memory *)
  | Mem_data  (** write-port data into a memory *)
  | Mem_read  (** memory content into a read-port node *)

type vertex = Sig of C.signal | Mem of C.memory

type t

val build : C.t -> t
(** Extract the graph of an elaborated circuit.  O(nodes + edges). *)

val vertex_index : t -> vertex -> int
(** Dense packing of the vertex space: signals first (at their
    creation index), memories after.  Stable for the lifetime of the
    graph; passes that sweep flat arrays (dominators) key on it. *)

val vertex_of_index : t -> int -> vertex

val circuit : t -> C.t
val signal_count : t -> int
val memory_count : t -> int

val signal_handles : t -> C.signal array
(** Handle of every node, indexed by [(signal :> int)] — the reverse
    of the coercion, for passes that sweep dense arrays. *)

val edge_count : t -> int
(** Total dependency edges (dependency slots, register inputs, memory
    port connections), duplicates included. *)

val preds : t -> vertex -> (vertex * edge_kind) list
(** Fan-in edges, one entry per dependency slot (duplicates preserved:
    a comb reading the same node twice lists it twice). *)

val succs : t -> vertex -> (vertex * edge_kind) list

val fanout : t -> C.signal -> int
(** Number of {e distinct} sink vertices reading the node — the
    quantity fault collapsing keys on (a fan-out-free node has exactly
    one reader). *)

val level : t -> C.signal -> int
(** Combinational depth: inputs, constants, registers and memories are
    level 0; a comb node is one more than its deepest dependency (read
    ports count their memory as level 0).  This is the length of the
    longest settle-order evaluation chain feeding the node. *)

val max_level : t -> int

(** {2 Cone of influence}

    Backward reachability from the observation boundary, across all
    edge kinds — through registers, enables and memory ports alike,
    so membership is purely structural (no timing argument needed). *)

type cone

val backward_cone : t -> C.signal list -> cone
(** All vertices with a structural path to at least one of the given
    observation points (the points themselves included). *)

val cone_signal : cone -> C.signal -> bool
val cone_memory : cone -> C.memory -> bool

val cone_site : cone -> C.fault_site -> bool
(** Whether a fault site can influence the observation boundary:
    [Node] sites by their signal, [Cell] sites by their memory.  A
    site outside the cone is provably silent — the faulty value can
    never propagate to anything the environment reads. *)

val cone_size : cone -> int
(** Vertices inside the cone (signals + memories). *)
