(** The decomposition driver: inline → normalize → interesting points →
    XRPCExpr insertion → (optional) distributed code motion →
    (by-projection) projection-path filling. *)

type plan = {
  strategy : Strategy.t;
  query : Xd_lang.Ast.query;  (** the rewritten query *)
  inserted : (int * string) list;  (** (subgraph root id, host) pushed *)
  d_points : int list;  (** I(G), diagnostics *)
  i_points : int list;  (** I'(G), diagnostics *)
}

exception Update_placement of string
(** An updating expression's single affected peer cannot be identified at
    compile time (the paper's Section IX restriction on decomposing
    XQUF). *)

val single_host : Xd_dgraph.Dgraph.t -> int -> string option
(** The one xrpc host all of a vertex's document dependencies live at, if
    any — multi-host points (like the query root) stay local; placement is
    the paper's future work. *)

val place_updates : Xd_lang.Ast.expr -> Xd_lang.Ast.expr
(** Wrap every remote-targeting update in an execute-at at its single
    affected peer. @raise Update_placement when no single peer exists. *)

exception Rejected of Xd_verify.Verify.report
(** The decomposer's own output failed the independent safety analysis
    (only raised under [~verify:true] — it indicates a decomposer bug). *)

val plan_of_query : Strategy.t -> Xd_lang.Ast.query -> plan
(** Wrap a query as a plan — no inlining, normalization or insertion;
    only {!Constfold.fold_query}, so constant computed hosts verify like
    literal ones. The entry point for verifying hand-written distributed
    queries (the CLI's [--plan] mode). *)

val decompose :
  ?code_motion:bool ->
  ?verify:bool ->
  ?typing:bool ->
  Strategy.t ->
  Xd_lang.Ast.query ->
  plan
(** [?typing] (default [true]) widens the insertion conditions with
    static type and cardinality proofs ({!Xd_types.Infer}): conditions
    i–iv are skipped for proven-atomic shipped results and parameters.
    [~typing:false] reverts to the purely structural conditions.

    Memoised on the physical query and the four options: the same AST
    (as {!Xd_lang.Parser.parse_query} returns for a repeated text) gets
    back the same plan, which callers must treat as immutable. The
    entry dies with the AST. A plan whose projection paths were
    reassigned in place is recomputed, not reused. The plan shares no
    [execute_at] record with [q]. Single-domain.
    @raise Update_placement for non-decomposable updating queries (never
    under {!Strategy.Data_shipping}, where updates run wherever their
    documents were fetched — see the executor's fetched-copy guard).
    @raise Rejected under [~verify:true] when the emitted plan fails
    {!Xd_verify.Verify.verify} — a decomposer-bug tripwire. *)

val explain : Format.formatter -> plan -> unit
