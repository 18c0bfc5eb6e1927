(** Direct-mapped cache model for the ISS {e timing simulator}.

    The ISS functional emulator never needs caches for correctness;
    this model only contributes cycle penalties, so that reported ISS
    cycle counts resemble the real pipeline's.  The RTL system has its
    own structural cache (the CMEM fault-injection target); this one is
    deliberately simple. *)

type config = {
  lines : int;  (** number of lines, a power of two *)
  words_per_line : int;  (** line size in 32-bit words, a power of two *)
  miss_penalty : int;  (** extra cycles charged per miss *)
  write_through_cost : int;  (** extra cycles charged per store *)
}

val default_icache : config
val default_dcache : config

type t

val create : config -> t

val copy : t -> t
(** An independent cache with the same tags. *)

val access : t -> int -> write:bool -> int
(** [access cache addr ~write] simulates one access to byte address
    [addr] and returns the cycle penalty beyond the base latency.
    Stores allocate on miss (the line is fetched first) and add the
    write-through cost. *)
