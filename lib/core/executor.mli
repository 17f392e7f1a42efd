(** End-to-end distributed execution: decompose under a strategy, run at a
    client peer against the simulated network, collect the Fig. 8 cost
    breakdown. *)

type timing = {
  wall_s : float;
  local_exec_s : float;  (** wall minus the measured buckets *)
  serialize_s : float;
  shred_s : float;
  remote_exec_s : float;
  network_s : float;  (** simulated wire time *)
  message_bytes : int;
  document_bytes : int;
  messages : int;
  faults : int;  (** wire faults injected *)
  timeouts : int;  (** calls that waited out the per-call timeout *)
  retries : int;  (** re-sent requests *)
  fallbacks : int;  (** calls degraded to local data-shipped evaluation *)
  dedup_hits : int;  (** retried requests answered from the server cache *)
  dedup_evictions : int;
      (** cache entries dropped by the bounded dedup cache *)
  txn_staged : int;  (** update operations staged at remote participants *)
  txn_commits : int;  (** distributed transactions committed *)
  txn_aborts : int;  (** distributed transactions aborted *)
  calls : int;  (** remote execute-at calls issued *)
  sched_groups : int;  (** overlap groups the scheduler executed *)
  sched_overlapped : int;
      (** calls that ran overlapped on the simulated clock *)
  sched_saved_s : float;
      (** simulated wire time saved by overlap (sum − critical path) *)
  batch_envelopes : int;  (** coalesced multi-call request envelopes sent *)
  batch_calls : int;  (** calls that travelled inside batch envelopes *)
  forwarded : int;  (** [<forward>] redirects followed *)
  topo_resolutions : int;
      (** computed execute-at hosts resolved via the catalog *)
  topo_failovers : int;
      (** calls re-routed to a replica because the owner was down *)
  topo_epoch_aborts : int;
      (** 2PC prepares participants refused on an epoch mismatch *)
  ov_admitted : int;
      (** requests admitted by the bounded-capacity model *)
  ov_shed : int;  (** requests shed on a full admission queue *)
  ov_deadline_rejects : int;
      (** requests refused because the remaining deadline budget could
          not cover them (server gate + caller pre-send expiries) *)
  ov_queue_wait_s : float;
      (** queueing delay charged to the simulated clock *)
  breaker_opens : int;  (** circuit-breaker closed→open transitions *)
  breaker_shed : int;
      (** calls shed locally by an open breaker (never on the wire) *)
  breaker_probes : int;  (** half-open probe calls let through *)
  retry_budget_stops : int;
      (** retries skipped because the shared per-query pool was spent *)
  codec_compiled : int;
      (** requests and batch slots written by a call site's writer
          compiled with the plan *)
  codec_decodes : int;
      (** responses read by a compiled atomic-response decoder *)
  codec_event_shreds : int;
      (** fragment/copy subtrees built straight into pre-order arrays
          while their message was read ({!Xd_xrpc.Message.parse}); counted
          with or without a codec *)
  codec_bailouts : int;
      (** responses a compiled decoder did not match, read generically *)
}

val total_time : timing -> float
(** Computation wall time plus simulated network time — the paper's
    "total execution time". *)

type run = {
  value : Xd_lang.Value.t;
  plan : Decompose.plan;
  timing : timing;
  trace_root : Xd_obs.Trace.span option;
      (** the query's root span when run with [?trace] — the whole span
          tree is in the tracer's buffer *)
}

exception Plan_rejected of Xd_verify.Verify.report
(** The plan failed the distribution-safety verifier: executing it
    distributed would silently diverge from the local semantics. *)

val verify_plan :
  ?schedule:(int * int list) list ->
  ?shapes:Xd_shape.Shape.descriptor list ->
  ?catalog:Xd_topo.Catalog.t ->
  client:Xd_xrpc.Peer.t -> Decompose.plan -> Xd_verify.Verify.report
(** Run the static verifier on a plan as this client would see it (calls
    targeting the client's own peer name are local evaluation).
    [schedule] additionally submits an overlap schedule for vetting: the
    verifier re-derives every member's effect footprint and rejects
    non-read-only or interfering members. [shapes] submits a compiled
    codec's wire-shape descriptors: each is re-derived independently and
    disagreement rejects the plan. [catalog] is the topology catalog the
    plan will run against: it tightens the computed-host warning into a
    checked judgment (see {!Xd_verify.Verify.verify}). {!run_plan}
    passes the network's installed catalog and its codec's descriptors
    automatically. *)

val plan_schedule :
  client:Xd_xrpc.Peer.t -> Decompose.plan -> (int * int list) list
(** The effect analysis's overlap schedule for the plan — [(anchor,
    members)] pairs of Seq/Let/For anchors and the provably
    non-interfering read-only [execute at] calls under them (see
    {!Xd_effects.Effects.schedule}). Empty when nothing may overlap. *)

val txn_needed : self:string -> Xd_lang.Ast.query -> bool
(** Static site analysis for [`Auto]: [true] iff updating expressions may
    execute at two or more distinct sites (or at a site that cannot be
    determined statically). Updates confined to one site are already
    atomic there and need no distributed commit. *)

val run_plan :
  ?record:Xd_xrpc.Session.recorded list ref ->
  ?bulk:bool ->
  ?timeout_s:float ->
  ?retries:int ->
  ?dedup_cap:int ->
  ?deadline:float ->
  ?retry_budget:int ->
  ?txn:[ `Auto | `Always | `Off ] ->
  ?parallel:bool ->
  ?codec:bool ->
  ?force:bool ->
  ?trace:Xd_obs.Trace.t ->
  Xd_xrpc.Network.t ->
  client:Xd_xrpc.Peer.t ->
  Decompose.plan ->
  run
(** Verify, then execute, an already-decomposed (or hand-written) plan.
    [timeout_s]/[retries]/[dedup_cap] configure the per-call timeout,
    retry budget and server dedup cache of the session (see
    {!Xd_xrpc.Session.create}). [txn] selects atomic multi-peer commit:
    [`Always] runs the query through {!Xd_xrpc.Session.execute_txn},
    [`Off] never does, and [`Auto] (the default) consults {!txn_needed}
    so that single-site queries keep a wire identical to [`Off].

    [deadline] gives the query an end-to-end budget in simulated
    seconds, propagated on every message and enforced at every hop
    (PROTOCOL.md, "Deadlines & overload"); [retry_budget] caps the
    total retries of the whole plan execution in one shared pool —
    both default to absent, leaving the wire byte-identical to a build
    without the overload layer.

    [parallel] (default true) computes the effect-analysis overlap
    schedule ({!plan_schedule}), has the verifier vet it, and passes it
    to the session: provably non-interfering read-only calls bill the
    simulated clock by critical path and, on a fault-free wire, coalesce
    per peer into one batched envelope per round trip.
    [~parallel:false] reproduces the sequential baseline exactly.

    [codec] (default true) runs the wire-shape analysis
    ({!Xd_shape.Shape.analyze}) over the plan, compiles every call
    site's request writer and the decoders of provably-atomic responses
    ({!Xd_xrpc.Codec.compile}), has the verifier re-derive and vet every
    descriptor, and installs the codecs in the session. [~codec:false]
    drops only this plan-time compilation and the decoders: each call
    then compiles its writer when it is sent, with the same function, so
    the wire is byte-identical either way and [~codec:false] is the
    ablation baseline for [bench codec]. A response no decoder takes is
    read by {!Xd_xrpc.Message.parse}, with or without a codec.

    The prelude — overlap schedule, compiled codec, verifier report —
    is memoised on the physical plan, under the client's name,
    [parallel], [codec] and {!Xd_topo.Catalog.version} of the network's
    catalog, so a repeated plan (as {!Decompose.decompose} returns for a
    repeated query) skips it; the entry dies with the plan. The report
    is enforced on every run. [wall_s] starts after the prelude.
    Single-domain.

    [trace] records the execution as a span tree in the given tracer
    (simulated clock pointed at the run's wire time, root span in
    [run.trace_root]); export with {!Xd_obs.Sink}. Tracing never
    changes results, {!Xd_xrpc.Stats} or a seeded fault schedule.
    @raise Plan_rejected when the verifier reports errors and [force] is
    false (the default); [~force:true] executes anyway. *)

val run :
  ?record:Xd_xrpc.Session.recorded list ref ->
  ?bulk:bool ->
  ?timeout_s:float ->
  ?retries:int ->
  ?dedup_cap:int ->
  ?deadline:float ->
  ?retry_budget:int ->
  ?txn:[ `Auto | `Always | `Off ] ->
  ?parallel:bool ->
  ?codec:bool ->
  ?code_motion:bool ->
  ?force:bool ->
  ?trace:Xd_obs.Trace.t ->
  Xd_xrpc.Network.t ->
  client:Xd_xrpc.Peer.t ->
  Strategy.t ->
  Xd_lang.Ast.query ->
  run
(** Decompose [q] under the strategy, then {!run_plan} it. *)

val recover :
  ?timeout_s:float ->
  ?retries:int ->
  ?dedup_cap:int ->
  Xd_xrpc.Network.t ->
  client:Xd_xrpc.Peer.t ->
  unit
(** Re-drive every transaction the client's journal shows as begun but
    unresolved: journaled commit decisions are pushed to all
    participants, undecided transactions are aborted (presumed abort).
    Run after a coordinator crash-restart; idempotent. *)

val run_local :
  Xd_xrpc.Network.t -> client:Xd_xrpc.Peer.t -> Xd_lang.Ast.query ->
  Xd_lang.Value.t
(** Reference semantics: every peer's documents resolve directly in the
    owning store, with exact node identity and no cost accounting. Any
    decomposition must be deep-equal to this. An update applies each
    document's new version in the store of the peer that registered it. *)
