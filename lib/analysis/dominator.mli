(** Post-dominator tree of a {!Graph} with respect to the observation
    boundary.

    A vertex [d] post-dominates [v] when every forward (data-flow)
    path from [v] to an exit passes through [d].  Structural fault
    collapsing keys on the {e immediate} post-dominator: a fault
    effect leaving [v] must traverse [ipdom v] before it can reach
    anything the environment observes, so under a local
    equivalence-check the two sites share a verdict.

    Built with the Cooper–Harvey–Kennedy iterative algorithm on the
    reversed graph, rooted at a virtual exit vertex. *)

module C = Rtl.Circuit

type t

val build : Graph.t -> exits:C.signal list -> t
(** [build g ~exits] computes the post-dominator tree toward the given
    observation points.  O(edges × tree depth) in the worst case; two
    or three sweeps in practice on netlist-shaped graphs. *)

val reachable : t -> Graph.vertex -> bool
(** Whether the vertex has any structural path to an exit (membership
    in the backward cone).  [ipdom] is [None] outside it. *)

val ipdom : t -> Graph.vertex -> Graph.vertex option
(** Immediate post-dominator.  [None] when the vertex is unreachable,
    or when its only post-dominator is the virtual root (its fault
    effects can reach the boundary along disjoint exits). *)

val tree_size : t -> int
(** Reachable vertices (the tree's vertex count, virtual root
    excluded). *)
