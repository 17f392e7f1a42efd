(** Node-sequence operations (document order, identity-based). *)

val sort : Node.t list -> Node.t list
val sort_dedup : Node.t list -> Node.t list
(** Document order without duplicates. Input that is already strictly
    increasing is returned as it is, after one linear check. *)

(** The node-set operators: one merge of the two operands after
    {!sort_dedup}. *)

val union : Node.t list -> Node.t list -> Node.t list
val intersect : Node.t list -> Node.t list -> Node.t list
val except : Node.t list -> Node.t list -> Node.t list
val contains_node : Node.t list -> Node.t -> bool

val maximal : Node.t list -> Node.t list
(** Drop nodes contained in another node of the set (pass-by-fragment
    deduplication). Result is in document order. *)

val lowest_common_ancestor : Node.t list -> Node.t
(** @raise Invalid_argument on empty input or nodes from different
    documents. *)
