(** Complete RTL system: the {!Core} microcontroller plus its off-core
    environment — main memory behind the bus, the exit port, and the
    bus-transaction drivers.  This is the machine the fault-injection
    campaigns run: everything inside {!Core} is injectable, everything
    in here is the (fault-free) outside world.

    The circuit is elaborated once per {!create}; each {!load} resets
    it and installs a fresh memory image, so one [t] is reused across
    thousands of campaign runs.  Both bus drivers step through
    {!Bus_port.step}. *)

module Asm = Sparc.Asm
module Memory = Sparc.Memory
module Bus_event = Sparc.Bus_event

type stop_reason =
  | Exited of int  (** store to the exit port; payload is the exit code *)
  | Trapped of int  (** core reached HALT; payload is the trap code *)
  | Cycle_limit
  | Aborted  (** the [on_event] callback requested an early stop *)

type t

val create : ?params:Core.params -> unit -> t
(** Build and elaborate the system. *)

val core : t -> Core.t

val set_obs : t -> Obs.t -> unit
(** Attach a telemetry collector: every {!run}/{!run_segment} call
    then adds the cycles and instructions it simulated to the
    [rtl.cycles] / [rtl.instructions] counters.  Default {!Obs.null}
    (no cost). *)

val obs : t -> Obs.t

val load : t -> Asm.program -> unit
(** Reset the circuit, clear recorded events and install the program
    image.  Raises [Invalid_argument], naming both addresses, when the
    program's entry is not the core's reset PC ({!Core.reset_pc}). *)

val step : t -> unit
(** Advance one clock cycle (drive bus responses, clock, settle). *)

val run :
  ?on_event:(Bus_event.t -> bool) -> ?detect_loops:bool -> t -> max_cycles:int ->
  stop_reason
(** Step until the program exits, the core traps, [max_cycles] clocks
    have elapsed, or [on_event] returns [false] for a bus event
    (events are delivered in order, writes and reads alike).
    [detect_loops] (default false) arms hang-loop detection: when the
    machine provably re-enters an earlier state with no bus write in
    between, the run returns [Cycle_limit] immediately — the exact
    verdict a full run to [max_cycles] would produce, at a fraction of
    the cost.  Intended for runs already suspected to hang (e.g. lanes
    the bit-parallel batch engine ejects); the default path is
    untouched. *)

val run_segment :
  ?on_event:(Bus_event.t -> bool) -> ?detect_loops:bool -> t -> until_cycle:int ->
  max_cycles:int -> stop_reason option
(** Like {!run} but pauses once the cycle counter reaches
    [until_cycle], returning [None]; the run can then be inspected
    and resumed with another [run_segment] or {!run} call.  Terminal
    outcomes return [Some reason] and latch exactly as {!run} does. *)

val stop : t -> stop_reason option

(** {2 Lane → scalar transplant}

    When the bit-parallel batch engine runs out of golden trace with a
    lane still live, the lane's state can be transplanted here and the
    run continued {e from trace end} instead of restarting from cycle
    0.  The transplant overwrites everything a resumed run depends on:
    circuit state and armed fault (via {!Rtl.Circuit.transplant}), the
    main-memory image, both bus-driver states and the event/write
    counters.  The resulting state is already settled. *)

val transplant :
  t ->
  Rtl.Circuit.transplant ->
  mem:Memory.t ->
  iport:int * bool ->
  dport:int * bool ->
  events_rev:Bus_event.t list ->
  n_events:int ->
  n_writes:int ->
  unit

val ports : t -> (int * bool) * (int * bool)
(** Both drivers' states, instruction port first, in the form
    {!transplant} takes: (countdown, ready_out). *)

val cycles : t -> int

val instructions : t -> int
(** Value of the retired-instruction counter. *)

val events : t -> Bus_event.t list
(** All off-core bus events so far, in order (data-side only;
    instruction fetches are not recorded). *)

val writes : t -> Bus_event.t list

val memory : t -> Memory.t
(** The main-memory image behind the bus. *)

val reg : t -> int -> int
(** Architectural register of the current window (backdoor, for
    differential testing against the ISS). *)

val pp_stop : Format.formatter -> stop_reason -> unit
