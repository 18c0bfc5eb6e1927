module Isa = Sparc.Isa
module Asm = Sparc.Asm
module Memory = Sparc.Memory
module Units = Sparc.Units
module Bus_event = Sparc.Bus_event

(** Instruction set simulator: functional emulator plus coarse timing.

    The functional emulator keeps the full architectural state
    (windowed registers, condition codes, PC, memory) and interprets
    machine words fetched from memory — the same encoded image the RTL
    system executes.  The timing side charges per-class latencies and
    I/D-cache penalties so cycle counts have the right order of
    magnitude; it never affects functional results.

    This is the cheap engine of the paper: fault injection happens in
    the RTL model, while the ISS supplies the instruction-grain
    information (counts, diversity, unit usage) that the correlation
    consumes. *)

type trap =
  | Misaligned_access of int
  | Division_by_zero
  | Illegal_instruction of int  (** the undecodable word *)

type stop_reason =
  | Exited of int  (** store to the exit port; payload is the exit code *)
  | Instruction_limit
  | Trapped of trap

type latencies = {
  alu : int;
  shift : int;
  mul : int;
  div : int;
  load : int;
  store : int;
  branch_taken : int;  (** includes pipeline refill *)
  branch_untaken : int;
  call : int;
  jmpl : int;
  save_restore : int;
  sethi : int;
}

val default_latencies : latencies

type config = {
  nwindows : int;
  latencies : latencies;
  icache : Cache.config option;
  dcache : Cache.config option;
  max_instructions : int;
  record_reads : bool;  (** also record load bus events *)
}

val default_config : config

type t

type outcome = Running | Stopped of stop_reason

val create : ?config:config -> Asm.program -> t
(** Loads the program image into a fresh memory and points the PC at
    its entry. *)

val copy : ?into:t -> t -> t
(** An independent emulator in the same state: memory, register file,
    CWP, condition codes, PC, cycle and instruction counts, opcode
    histogram, recorded events, cache tags, decode cache and pending
    fetch corruption.  Stepping either one leaves the other as it was.
    The copy has no event or access hook.  With [into], the copy takes
    over that emulator's memory pages instead of allocating its own;
    [into] must not be used afterwards. *)

val step : t -> outcome
(** Execute one instruction. Stepping a stopped emulator returns the
    same stop again without effect. *)

val run : t -> stop_reason
(** Step until stopped. *)

(** {2 State access} *)

val pc : t -> int
val cycles : t -> int
val instructions : t -> int
val icc : t -> Isa.icc
val cwp : t -> int
val reg : t -> Isa.reg -> int
(** Read an architectural register of the {e current} window. *)

val memory : t -> Memory.t
val events : t -> Bus_event.t list
(** Off-core bus events in program order. *)

val opcode_histogram : t -> (Isa.opcode * int) list
(** Executed opcodes with non-zero counts. *)

val diversity : t -> int
(** Number of distinct opcodes executed so far (the paper's metric). *)

val unit_accesses : t -> (Units.t * int) list
(** Per-functional-unit dynamic access counts, derived from the opcode
    histogram via {!Units.used_by}. *)

(** {2 Fault-injection hooks}

    Instruction-grain corruption primitives for ISS-level campaigns
    ({!Iss_campaign} in [lib/fault]).  They mutate architectural state
    directly; classification against a golden run is the caller's
    job. *)

val flip_regfile_bit : t -> slot:int -> bit:int -> unit
(** Invert one bit of one physical register-file slot.  Slots are
    numbered flat: the 8 globals (slot 0 is the hardwired g0 cell —
    corrupting it is architecturally masked), then the [16 * nwindows]
    windowed registers. *)

val flip_memory_bit : t -> addr:int -> bit:int -> unit
(** Invert one bit of the memory word containing [addr] (the address
    is word-aligned down). *)

val corrupt_next_fetch : t -> bit:int -> unit
(** XOR the given bit into the {e next} fetched instruction word.  The
    corrupted word bypasses the decode cache (read and insert) and the
    mask clears itself after one fetch, so exactly one dynamic
    instruction is affected. *)

val set_event_hook : t -> (Bus_event.t -> unit) option -> unit
(** Install a callback invoked synchronously on every recorded bus
    event — the cheap lockstep-observation channel.  The callback may
    raise to abort the run; the exception propagates out of
    {!step}/{!run}. *)

(** {2 Access observation} *)

type location =
  | Slot of int  (** register-file slot, numbered as in {!flip_regfile_bit} *)
  | Word of int  (** word-aligned memory address *)

type access = Read | Write

val set_access_hook : t -> (int -> location -> access -> unit) option -> unit
(** Install a callback told of every register-file and memory access
    the interpreter makes, as [(instant, location, kind)]; the instant
    is the instruction count before the accessing instruction runs.
    Reads are register reads, loads, partial stores (a byte or
    halfword store merges into its word) and instruction fetches that
    miss or bypass the decode cache; writes are register writes and
    full-word stores.  Within one instruction every read is reported before any
    write.  The g0 cell (slot 0) is never read or written, and a store
    to the exit port touches no memory.  Without a hook (the default)
    observation costs one branch per access. *)

(** {2 One-shot convenience} *)

type result = {
  stop : stop_reason;
  cycles : int;
  instructions : int;
  histogram : (Isa.opcode * int) list;
  diversity : int;
  unit_accesses : (Units.t * int) list;
  writes : Bus_event.t list;  (** write events only, in order *)
  events : Bus_event.t list;  (** all recorded events *)
  memory_instructions : int;  (** dynamic loads + stores *)
}

val execute : ?config:config -> Asm.program -> result
(** Load, run to completion and summarise. *)

val pp_stop : Format.formatter -> stop_reason -> unit
