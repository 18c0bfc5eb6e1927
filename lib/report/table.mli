(** Plain-text tables for experiment output. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val make : title:string -> header:string list -> ?notes:string list -> string list list -> t

val render : Format.formatter -> t -> unit
(** Boxed, column-aligned ASCII rendering. *)

val to_string : t -> string

val cell_float : float -> string
(** Two-decimal rendering used across experiment tables. *)

val cell_pct : float -> string
(** ["12.3%"] from a 0-100 value. *)

val cell_ci : lower:float -> upper:float -> float -> string
(** ["12.3% [10.1, 14.9]"] — a percentage point estimate with its
    confidence bounds, all on the 0-100 scale. *)
