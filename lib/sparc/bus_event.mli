(** Off-core bus activity.

    Light-lockstep microcontrollers (Infineon AURIX, ST SPC56XL) compare
    cores at the off-core boundary; following the paper we classify a
    fault as a failure when the sequence of memory {e writes} diverges
    from the golden run.  Reads are also recorded so the stricter
    compare-reads policy can be studied as an ablation. *)

type size = Byte | Half | Word

type t =
  | Write of { addr : int; size : size; value : int }
  | Read of { addr : int; size : size }

val is_write : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
