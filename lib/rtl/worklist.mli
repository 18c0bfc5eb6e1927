(** The levelized worklist both change-driven settle loops of
    {!Circuit} and {!Lanes} share: one bucket per combinational level
    and a per-node stamp that queues each node at most once per settle.
    Evaluating the buckets in level order visits every queued node
    after all of its queued dependencies, because a node can only queue
    its fanout, which sits on strictly deeper levels.

    Both loops queue a node by inlining the same steps over the fields
    — skip it when its stamp holds the current epoch, else stamp it and
    append it to its level's bucket — and walk the buckets over the
    fields too.  The fields are visible for that reason: in a build
    without cross-module optimisation (dune's default profile passes
    [-opaque]) a call into this module is an indirect call, once per
    queued node or visited level. *)

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
    before the first node is queued. *)
