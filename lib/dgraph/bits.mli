(** Sets of vertex ranks [0 .. n-1] as bit vectors.

    The d-graph keeps one per vertex (its reverse reachability,
    {!Dgraph.users}); the insertion conditions test those rows against
    candidate sets, whole or within one subtree's rank interval
    [\[lo, hi)], without materialising intermediate sets. A row a caller
    receives from {!Dgraph} is shared: never mutate it. *)

type t

val create : int -> t
(** [create n] is the empty set over ranks [0 .. n-1]. *)

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit

val union_into : dst:t -> t -> unit
(** [union_into ~dst s] adds every rank of [s] to [dst]. *)

val union_inter_into : dst:t -> t -> t -> unit
(** [union_inter_into ~dst a b] adds every rank in both [a] and [b]. *)

val meets_within : t -> t -> int -> int -> bool
(** [meets_within a b lo hi] — some rank in [\[lo, hi)] is in both. *)

val meets_outside : t -> t -> int -> int -> bool
(** [meets_outside a b lo hi] — some rank outside [\[lo, hi)] is in
    both. *)

val any_within : t -> int -> int -> bool
(** [any_within s lo hi] — some rank of [s] lies in [\[lo, hi)]. *)
