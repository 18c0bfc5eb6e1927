(** Leon3-class microcontroller RTL model.

    A SPARC v8 integer unit built as a synthesisable-style netlist on
    the {!Rtl.Circuit} kernel: program counter and fetch, decode,
    windowed register file, adder/logic/shifter/multiplier/divider
    execution units with condition codes, load/store unit, exception
    stage and writeback, plus structural instruction and data caches
    (the CMEM block).  The instruction lifecycle walks the seven Leon3
    stage names FE DE RA EX ME XC WB as a multi-cycle sequencer; DESIGN.md
    discusses why dropping instruction overlap is sound for the
    paper's permanent-fault scope.

    Hierarchical scopes double as the paper's functional units:
    ["iu.fe"], ["iu.de"], ["iu.ctrl"], ["iu.regfile"], ["iu.ra"],
    ["iu.ex.adder"], ["iu.ex.logic"], ["iu.ex.shift"], ["iu.ex.mul"],
    ["iu.ex.div"], ["iu.ex.branch"], ["iu.ex"], ["iu.me"], ["iu.xc"],
    ["iu.wb"], ["cmem.icache"], ["cmem.dcache"]. *)

module C = Rtl.Circuit

(** FSM state encoding (3 bits). *)

val st_fe : int
val st_de : int
val st_ra : int
val st_ex : int
val st_me : int
val st_xc : int
val st_wb : int
val st_halt : int

(** Trap codes as latched in [iu.xc.trap_code]. *)

val trap_none : int
val trap_illegal : int
val trap_misaligned : int
val trap_div0 : int

type t = {
  circuit : C.t;
  state : C.signal;
  pc : C.signal;
  ir : C.signal;
  halted : C.signal;  (** 1 when the sequencer reached HALT (trap taken) *)
  trap_code : C.signal;
  instret : C.signal;  (** retired-instruction counter *)
  icc : C.signal;
  cwp : C.signal;
  icache : Cache_block.ports;
  dcache : Cache_block.ports;
  regfile : C.memory;
}

type params = {
  icache_lines : int;
  dcache_lines : int;
  gate_level : bool;
      (** elaborate the full IU datapath — decode PLA, ALU, barrel
          shifter, condition-code logic, branch and the
          operand/result/writeback mux trees — as a NAND/NOR/NOT/MUX
          netlist (see {!Gatelevel}), multiplying the injection-site
          population by more than an order of magnitude.  Every
          behavioural node name survives as a packer or buffer over the
          gate bits, so name-addressed faults exist in both
          elaborations.  Gate innards live under nested [gates] scopes
          ([iu.fe.gates], [iu.de.gates], [iu.ex.*.gates]) plus the
          cross-unit [iu.gates.operand] and [iu.gates.alu] scopes. *)
}

val default_params : params

val nwindows : int
(** Register windows (8). *)

val reset_pc : int
(** The PC the core fetches from after reset: {!Sparc.Layout.text_base}. *)

val build : ?params:params -> unit -> t
(** Construct and {e elaborate} the full microcontroller circuit. *)

val regfile_slot : nwindows:int -> cwp:int -> int -> int
(** Physical register-file index of architectural register [r] in
    window [cwp]; shared with tests to cross-check the ISS mapping. *)

val observation_points : t -> C.signal list
(** The off-core failure boundary: every signal the simulation
    environment reads — bus request/command/payload of both cache
    ports, [halted], [trap_code] and [instret].  A fault with no
    structural path to any of these is provably silent (the
    environment's [bus_ready]/[bus_rdata] responses are a function of
    this history plus the memory image). *)

val environment_inputs : t -> C.signal list
(** The inputs the environment drives: [bus_ready]/[bus_rdata] of both
    cache ports.  These are the only externally driven nodes, which is
    what the lint pass checks with its undriven-input rule. *)
