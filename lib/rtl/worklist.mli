(** The levelized worklist both change-driven settle loops of
    {!Circuit} and {!Lanes} share: one bucket per combinational level
    and a per-node stamp that queues each node at most once per settle.
    Evaluating the buckets in level order visits every queued node
    after all of its queued dependencies, because a node can only queue
    its fanout, which sits on strictly deeper levels.

    The fields are visible so that a settle loop can inline {!push}:
    in a build without cross-module optimisation (dune's default
    profile passes [-opaque]) a call into this module is an indirect
    call, once per queued node. *)

type t = {
  level : int array;  (** per node: its level, the bucket it queues in *)
  bucket : int array array;  (** per level: queued nodes, [0 .. fill - 1] *)
  fill : int array;  (** per level: nodes queued this epoch *)
  stamp : int array;  (** per node: the epoch it was last queued in *)
  mutable epoch : int;
}

val create : level:int array -> max_level:int -> t
(** [create ~level ~max_level] for nodes whose level is [level.(id)]
    (0 .. [max_level]). *)

val start : t -> unit
(** Empty every bucket and open a new epoch; call once per settle,
    before the first {!push}. *)

val push : t -> int -> bool
(** Queue a node in its level's bucket; [false] (and nothing queued)
    when it is already queued this epoch. *)

val max_level : t -> int

val length : t -> int -> int
(** Nodes queued at a level this epoch. *)

val bucket : t -> int -> int array
(** A level's bucket; entries [0 .. length - 1] are this epoch's. *)
