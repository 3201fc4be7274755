(** Control-flow-graph analyses shared by the HGraph and LIR libraries.

    Nodes are integer block ids; the graph is given extensionally as an entry
    node and a successor function.  Provides reachability, predecessors,
    reverse postorder, immediate dominators (Cooper-Harvey-Kennedy) and
    natural loops.

    {!analyze} costs one depth-first search: reachability, predecessors and
    reverse postorder come from it.  Dominators are computed on the first
    call to {!idom}, {!dominates}, {!loops} or {!loop_depth} and kept, so a
    pass that never asks about dominance never pays for it.  That first
    query mutates the [t]: a [t] must stay in the domain that built it. *)

type t

val analyze : entry:int -> succs:(int -> int list) -> t
(** Explores from [entry]; unreachable nodes are absent from every result. *)

val nodes : t -> int list
(** Reachable nodes in reverse postorder. *)

val mem : t -> int -> bool
(** Is the node reachable from the entry? *)

val preds : t -> int -> int list
(** Reachable predecessors, one entry per edge: a node whose two successors
    are the same block appears twice. *)

val succs : t -> int -> int list

val rpo_index : t -> int -> int
(** Position in reverse postorder; entry is 0. *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry node. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does [a] dominate [b] (reflexive)? *)

type loop = {
  header : int;
  back_edges : int list;   (** sources of the back edges into the header *)
  body : int list;         (** all blocks of the natural loop, incl. header *)
}

val loops : t -> loop list
(** Natural loops (back edges whose target dominates their source); one
    entry per header, merged over its back edges.  Ordered outermost-ish by
    header RPO. *)

val loop_depth : t -> int -> int
(** Number of natural loops containing the block. *)
