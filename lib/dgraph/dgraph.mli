(** The dependency graph (d-graph) of Section III.

    Vertices are the AST expression nodes (each carries a unique id);
    parse edges are the AST edges; a varref edge connects every variable
    reference to the value expression of its binder (the paper routes it
    through a Var vertex whose only parse child is that value expression —
    same reachability).

    {!build} numbers the vertices in pre-order, so parse reachability is an
    interval test, and keeps every vertex's reverse dependency reachability
    as a bit row over those ranks (computed on first use), so ⤳ and
    hasMatchingDoc are bit tests. *)

module Ast = Xd_lang.Ast
module Iset : Set.S with type elt = int

(** A fn:doc call site in a URI dependency set: literal URI, computed URI
    (wildcard), or a node constructor (artificial per-site URI). *)
type uri_kind = Uri of string | Wildcard | Constr

type uri_dep = { uri : uri_kind; site : int  (** call-site vertex id *) }

val uri_kind_to_string : uri_kind -> string
val pp_uri_dep : Format.formatter -> uri_dep -> unit

type t

val build : Ast.expr -> t
(** Vertex ids are unique within a tree (the parser and every rewrite
    allocate fresh ones); the rank facts below rely on it. *)

val vertex : t -> int -> Ast.expr
(** @raise Invalid_argument for an id not in the graph (so do {!rank},
    {!depends}'s source, {!reachable_set}, {!uri_deps},
    {!extended_uri_deps} and {!has_matching_doc}). *)

val vertices : t -> Ast.expr list
(** Every vertex once, in the order of the graph's id table. *)

(** {2 Pre-order ranks}

    The facts the insertion conditions are decided from. The vertices are
    ranked [0 .. count-1] in pre-order; the parse subtree of rank [r] is
    the ranks [\[r, stop r)]. *)

val count : t -> int
val rank : t -> int -> int
val at : t -> int -> Ast.expr
(** [at g r] is the vertex of rank [r]. *)

val stop : t -> int -> int
val up : t -> int -> int
(** Parent rank; [-1] at the root. *)

val vertex_ranks : t -> int list
(** The ranks of {!vertices}, in the same order. *)

val users : t -> int -> Bits.t
(** [users g r] — the ranks x with x ⤳ (the vertex of rank) r: the
    vertices that use r's value, r and its ancestors included. Shared. *)

val matching : t -> Bits.t
(** The ranks whose vertex satisfies {!has_matching_doc}. Shared. *)

val bound : t -> int -> int
(** [bound g r] — the rank of the binder value a varref of rank [r]
    refers to; [-1] when [r] is no varref or refers to a free variable.
    A varref edge leaves the subtree of [s] when [r] lies in it and
    [bound g r] does not. *)

(** {2 Edges and reachability} *)

val parent_of : t -> int -> int option
val binder_of : t -> int -> int option
(** Varref edge target: the binder's value-expression vertex. *)

val varrefs_of : t -> int -> int list

val parse_reaches : t -> int -> int -> bool
(** [parse_reaches g v u] — v ⤳p u (u in v's parse subtree; reflexive). *)

val reachable_set : t -> int -> Iset.t
val depends : t -> int -> int -> bool
(** [depends g x y] — x ⤳ y over parse and varref edges (reflexive). *)

val in_subgraph : t -> int -> int -> bool

val witness : t -> int -> int -> int list option
(** [witness g x y] — the shortest chain of vertex ids realizing x ⤳ y
    over parse-child and varref edges (reflexive: [witness g x x] is
    [Some [x]]). If only y ⤳ x holds, that chain is returned reversed, so
    a result always starts at [x] and ends at [y]. [None] when the two
    vertices are unrelated or unknown to the graph. Used by the
    {!Xd_verify} diagnostics to print the dependency path that carries a
    shipped value to the vertex that misuses it. *)

val outgoing_varrefs : t -> int -> (int * int) list
(** Varref edges leaving the subgraph of a vertex: [(varref vertex, binder
    value vertex)] pairs, in pre-order of the varrefs. These become the
    XRPC parameters at insertion. *)

val direct_uri_deps_of_vertex : Ast.expr -> uri_dep list

val uri_deps : t -> int -> uri_dep list
(** D(v) of Section IV: doc call sites reachable via parse edges, the
    last in pre-order first. *)

val extended_uri_deps : t -> int -> uri_dep list
(** D over full ⤳ reachability — the conservative footnote-3 refinement
    used by the hasMatchingDoc guard — highest site id first. *)

val uris_match : uri_kind -> uri_kind -> bool

val has_matching_doc_in : uri_dep list -> bool
(** Two *distinct* call sites with matching URIs — the mixed-call danger
    (the paper's definition has an evident [vi = vj] typo; the prose
    requires two different applications). *)

val has_matching_doc : t -> int -> bool

val xrpc_prefix : string
val split_xrpc_uri : string -> (string * string) option
(** [split_xrpc_uri "xrpc://host/doc.xml"] is [Some ("host", "doc.xml")]. *)

val xrpc_hosts : uri_dep list -> string list
