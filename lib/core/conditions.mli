(** Decomposition insertion conditions (Sections IV, V, VI).

    A subgraph root rs is a valid decomposition point iff no vertex n
    violates any condition, where the restrictions apply symmetrically to
    uses of rs's result and to the remote body's uses of its shipped
    parameters:

    - i: no reverse/horizontal axis step on shipped nodes (lifted by
      pass-by-projection);
    - ii: no node comparison / node-set operation on shipped nodes
      (by-fragment/by-projection: only under hasMatchingDoc);
    - iii: no axis step over possibly mixed/unordered/overlapping
      sequences; pass-by-value also forbids ForExpr/OrderExpr/overlapping
      axes as producers (bulk RPC and fragment ordering lift those);
    - iv: no fn:root/id/idref on shipped nodes (lifted by
      pass-by-projection). Unknown user function calls are treated
      conservatively.

    Static typing widens all of the above: a use of a proven-atomic
    result, or a remote use of a proven-atomic shipped parameter, cannot
    violate any condition — atomic values have no node identity, order
    or structure to lose in an XRPC copy (pass [?atomic] to
    {!make_ctx}).

    {!make_ctx} derives, once per graph, the vertices each condition can
    fire on (their hasMatchingDoc guard applied) and the vertices that
    reach a dangerous producer; each verdict is then a test of those sets
    against the d-graph's reverse-reachability rows, over the rank
    interval of the candidate's subgraph. *)

val known_builtins : string list
val bad_mixer : Strategy.t -> Xd_lang.Ast.expr -> bool

type ctx

val make_ctx :
  ?atomic:(int -> bool) -> Strategy.t -> Xd_dgraph.Dgraph.t -> ctx
(** [?atomic] answers whether a vertex provably produces only atomic
    values (see [Xd_types.Infer.atomic]); defaults to a constant [false],
    keeping every condition fully conservative. *)

(** The relations and the verdict below take vertices of the context's
    graph; an id not in it raises [Invalid_argument]. *)

val use_result : ctx -> Xd_lang.Ast.expr -> int -> bool
val use_param : ctx -> Xd_lang.Ast.expr -> int -> bool
val violates_update : ctx -> int -> Xd_lang.Ast.expr -> bool
val valid_d_point : ctx -> int -> bool

val d_points : ctx -> Xd_lang.Ast.expr list
(** I(G): all valid decomposition points, in the order of
    {!Xd_dgraph.Dgraph.vertices}. Computed once per context. *)

val interesting_points : ctx -> Xd_lang.Ast.expr list
(** I'(G): highest valid vertex of each URI-dependency equivalence class
    that depends on at least one document, applies at least one axis step,
    and references an xrpc:// URI (Section IV, Example 4.2). *)
