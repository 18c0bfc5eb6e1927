(** A bus-port driver of the off-core environment: the memory side of
    one cache port's bus handshake.  {!step} is the one driver state
    machine: {!System}'s two drivers, each lane of a bit-parallel batch
    pass and the pass's replica of the golden machine's drivers all
    step through it, so a lane's drivers and the golden ones it is
    compared against move by the same rule. *)

type t = {
  mutable countdown : int;  (** [-1] idle, otherwise cycles until the acknowledge *)
  mutable ready_out : bool;  (** the driver presents ready this cycle *)
}

val idle : unit -> t
(** A driver with no transaction in flight, as after {!System.load}. *)

val step : t -> req:bool -> bool
(** One clock of a driver, against the port's settled bus request
    [req]: a driver that presented ready goes idle; an idle driver
    that sees a request counts down the memory latency (one cycle).
    Returns [true] when the transaction completes in this step — the
    driver then presents ready, and the read data of a read, in the
    next cycle. *)
