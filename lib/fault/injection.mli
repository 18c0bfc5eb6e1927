(** Injection-point enumeration over the Leon3 model.

    Following the paper, faults target "VHDL signals, ports and
    variables" of the IU and CMEM blocks: here that is every bit of
    every netlist node under the block's hierarchical prefix, plus the
    storage cells of the block's memories (register file for the IU;
    tag and data arrays for the CMEM).  Cell sites make the pools
    heterogeneous in exactly the way the paper's [alpha_m] weighting
    discusses — a RAM bit is an injection point just like a control
    line, but contributes differently to failure probability. *)

module C = Rtl.Circuit

type site = { fault_site : C.fault_site; site_name : string }

type target =
  | Iu  (** integer unit: all [iu.*] nodes + register-file cells *)
  | Cmem  (** cache block: all [cmem.*] nodes + tag/data cells *)
  | Unit_of of Sparc.Units.t  (** a single functional unit's nodes *)
  | Prefix of string  (** raw hierarchical prefix, signals only *)

val target_name : target -> string
(** Stable textual key for a target ("iu", "cmem", "unit:<name>",
    "prefix:<p>") — used in campaign fingerprints and memo keys. *)

val prefix_of_unit : Sparc.Units.t -> string
(** Hierarchical prefix of a functional unit in the Leon3 netlist. *)

val unit_of_site_name : string -> Sparc.Units.t option
(** Attribute a site to its unit by longest registered prefix.  Robust
    to nested scopes ("iu.ex.adder.gates.c17[0]" is the adder's) and
    to names that {e are} a registered scope (memory cells such as
    "iu.regfile.regs[5][31]"). *)

val sites : ?include_cells:bool -> Leon3.Core.t -> target -> site list
(** The full pool for a target ([include_cells] defaults to [true];
    it only affects {!Iu} and {!Cmem}). *)

val sample :
  ?include_cells:bool -> Leon3.Core.t -> target -> Stats.Rng.t -> int option -> site array
(** [sample core target rng k]: [k] distinct sites of the pool drawn by
    [rng] (the whole pool, in order and drawing nothing, when [k] is
    [None] or at least the pool's size).  The same sites in the same
    order, and the same draws from [rng], as
    [Stats.Rng.sample_without_replacement] over {!sites}; only the drawn
    sites are named. *)

val pool_sizes : Leon3.Core.t -> (Sparc.Units.t * int) list
(** Injectable bit count per functional unit (signals + owned cells) —
    the area proxy behind the paper's [alpha_m] weights. *)
