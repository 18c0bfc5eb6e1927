(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic choice in the repository — workload input data,
    injection-point sampling, injection instants — draws from an
    explicitly seeded {!t}, so experiments are reproducible bit for
    bit. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val copy : t -> t
(** [copy rng] duplicates the state so two streams can diverge. *)

val int : t -> int -> int
(** [int rng n] draws uniformly from [0, n-1].  [n] must be positive. *)

val word32 : t -> int
(** [word32 rng] draws a uniform canonical 32-bit word. *)

val bool : t -> bool
(** [bool rng] draws a fair coin. *)

val float : t -> float
(** [float rng] draws uniformly from [0, 1). *)

val range : t -> lo:int -> hi:int -> int
(** [range rng ~lo ~hi] draws uniformly from the inclusive range. *)

val shuffle : t -> 'a array -> unit
(** [shuffle rng a] permutes [a] in place (Fisher-Yates). *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement rng k a] draws [min k (Array.length a)]
    distinct elements, preserving no particular order. *)

val split : t -> t
(** [split rng] derives an independent child generator, advancing the
    parent. *)
