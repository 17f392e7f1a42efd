(** A static transfer-cost model over decomposed plans — a first cut at the
    paper's future-work question of optimization quality. Estimates, per
    strategy, how many bytes a query will move given the real document
    sizes at their peers, and picks the cheapest strategy. The model's job
    is *ranking* (validated against the measured Fig. 7 ordering), not
    absolute prediction. *)

type estimate = {
  strategy : Strategy.t;
  fetched_bytes : int;  (** full documents moved (data shipping) *)
  response_bytes_est : int;  (** estimated message payloads *)
  overhead_bytes : int;  (** per-call envelope overhead *)
  overlap_saved_bytes : int;
      (** transfer the effect-analysis overlap schedule takes off the
          critical path: within a group, per-peer batched round trips run
          concurrently and same-peer calls share one envelope, so the
          group costs its most expensive peer instead of the sum. Zero
          when the plan has no overlap groups. *)
  codec_saved_bytes : int;
      (** effective transfer the compiled wire-shape codecs take off the
          processing path, at a measured per-byte discount
          ({!codec_discount}): response bytes moving through a compiled
          decoder. Zero unless {!estimate} was given the plan's
          descriptors. *)
  per_vertex : (int * int) list;
      (** estimated wire bytes per d-graph vertex (execute-at body id),
          ascending; vertex [-1] is the client's own document fetches.
          The id matches the [vertex] attribute the runtime stamps on
          call spans, so [--explain] joins these predictions with
          {!Xd_obs.Profile} actuals. *)
}

val total : estimate -> int
(** [fetched + responses + overhead − overlap_saved − codec_saved]. *)

val reduction_factor : Strategy.t -> float
val envelope_overhead : int

val codec_discount : float
(** Per-byte discount for response bytes read by a compiled decoder,
    measured on [bench codec]: the flat scan's share of a byte's
    serialize+shred cost against the generic reader. *)

val atom_bytes : int
(** Average serialized size of one atomic item in an XRPC response. *)

val estimate :
  ?typing:bool -> ?shapes:Xd_shape.Shape.descriptor list ->
  Xd_xrpc.Network.t -> Decompose.plan -> estimate
(** [?typing] (default [true]) sizes owner-executed responses with the
    static type and cardinality of the execute-at body
    ({!Xd_types.Infer}): a provably atomic body with a cardinality bound
    costs a fixed [atom_bytes × bound] response regardless of document
    size; unbounded atomic bodies cost a small fraction of the document.
    Non-atomic bodies keep the per-strategy {!reduction_factor}.

    [?shapes] (default absent) prices the plan's compiled decoders: call
    sites whose wire-shape descriptor admits one are charged
    {!codec_discount} less per response byte, reported in
    [codec_saved_bytes]. Absent, the estimate is identical to a
    codec-less build ({!estimate_all} / {!choose} never pass it, so
    strategy ranking is unaffected). *)

val estimate_all :
  ?code_motion:bool -> ?typing:bool -> Xd_xrpc.Network.t ->
  Xd_lang.Ast.query -> estimate list

val choose :
  ?code_motion:bool -> ?typing:bool -> Xd_xrpc.Network.t ->
  Xd_lang.Ast.query -> Strategy.t
(** Lowest estimated transfer; updating queries are pinned to
    pass-by-projection (data shipping cannot run them). *)

val pp_estimate : Format.formatter -> estimate -> unit
