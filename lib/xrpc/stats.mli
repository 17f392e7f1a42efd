(** Per-execution cost accounting, matching the Fig. 8 breakdown:
    shred / local exec / (de)serialize / remote exec / network.
    Wall-clock components are measured; network time is simulated from
    real message bytes and the configured link.

    Since the telemetry rework this is a typed compatibility view over
    an {!Xd_obs.Metrics} registry: every bucket below is a named metric
    (see {!registry}), so the same numbers appear in [--metrics] dumps
    and can be extended by other components (journals, tracing) without
    widening this interface. *)

type t

val create : unit -> t

val registry : t -> Xd_obs.Metrics.t
(** The backing registry. Holds, besides the buckets below, per-call
    duration histograms ([hist.*]), per-fault-kind counters
    ([xrpc.faults.<kind>]) and anything other components register
    (e.g. [journal.records]). *)

val reset : t -> unit
(** Zero every metric in the backing registry (registrations survive). *)

val is_empty : t -> bool
(** No remote activity recorded: no messages, documents, wire time,
    faults or transactions. *)

(** {2 Readers} *)

val message_bytes : t -> int  (** SOAP request+response bytes *)

val document_bytes : t -> int
(** whole documents fetched (data shipping) *)

val messages : t -> int
val documents_fetched : t -> int

val calls : t -> int
(** remote execute-at calls issued (local/self executions excluded) *)

val calls_to : t -> string -> int
(** per-destination call count — the [xrpc.calls{peer=...}] counter *)

val sched_groups : t -> int
(** overlap groups the scheduler executed *)

val sched_overlapped : t -> int
(** calls that ran overlapped on the simulated clock *)

val sched_saved_s : t -> float
(** simulated wire time saved by overlap (sum - max per group) *)

val batch_envelopes : t -> int
(** batched multi-call request envelopes sent *)

val batch_calls : t -> int
(** calls that travelled inside batch envelopes *)

val serialize_s : t -> float
val shred_s : t -> float
val remote_exec_s : t -> float
val network_s : t -> float  (** simulated wire time *)

val faults : t -> int  (** wire faults injected *)

val timeouts : t -> int
(** calls that waited out the per-call timeout *)

val retries : t -> int  (** re-sent requests *)

val fallbacks : t -> int
(** calls degraded to local data-shipped eval *)

val dedup_hits : t -> int
(** retried requests answered from the cache *)

val dedup_evictions : t -> int
(** dedup-cache entries evicted by the cap *)

val txn_staged : t -> int
(** update primitives staged at participants *)

val txn_commits : t -> int  (** distributed transactions committed *)

val txn_aborts : t -> int  (** distributed transactions aborted *)

val forwarded : t -> int
(** [<forward>] redirects followed by callers *)

val topo_resolutions : t -> int
(** computed execute-at hosts resolved via the catalog *)

val topo_failovers : t -> int
(** reads re-routed to a replica because the owner was down *)

val topo_epoch_aborts : t -> int
(** 2PC prepares a participant refused on an epoch mismatch *)

val topo_churn_events : t -> int
(** scripted membership events fired *)

val down_peers : t -> string list
(** peers whose [xrpc.peer_up{peer=...}] gauge currently reads 0 (last
    exchange exhausted its retries), sorted by name *)

val remote_clamps : t -> int
(** times {!time_remote} clamped a negative remote-exec residue to 0 —
    nonzero values point at double-counted nested buckets. *)

val ov_admitted : t -> int
(** requests admitted by the bounded-capacity model *)

val ov_shed : t -> int
(** requests shed on a full admission queue ([xrpc:server.overloaded]) *)

val ov_deadline_rejects : t -> int
(** requests rejected because the remaining deadline budget could not
    cover queue wait + service time ([xrpc:deadline.exceeded]), plus
    caller-side pre-send expiries *)

val ov_queue_wait_s : t -> float
(** total queueing delay charged to the simulated clock *)

val breaker_opens : t -> int
(** circuit-breaker closed→open transitions *)

val breaker_shed : t -> int
(** calls shed locally by an open breaker (never put on the wire) *)

val breaker_probes : t -> int
(** half-open probe calls let through *)

val retry_budget_stops : t -> int
(** retries skipped because the per-query retry budget was spent *)

val codec_compiled : t -> int
(** requests emitted by a compiled (wire-shape-specialized) encoder *)

val codec_decodes : t -> int
(** responses read by a compiled atomic-response decoder *)

val codec_event_shreds : t -> int
(** fragment/copy subtrees built straight into pre-order arrays while
    their message was read ({!Message.parse}) — every message is read
    that way, so this counts with or without a codec installed *)

val codec_bailouts : t -> int
(** compiled-codec attempts that fell back to the generic path on a
    runtime shape mismatch *)

val total_bytes : t -> int

(** {2 Writers} *)

val add_message : t -> bytes:int -> unit
val add_document : t -> bytes:int -> unit
val add_network_s : t -> float -> unit

val set_network_s : t -> float -> unit
(** Rewind/advance the simulated clock — the scheduler bills an overlap
    group by its longest member instead of the sum. *)

val incr_call : peer:string -> t -> unit
(** Count one remote call towards [peer] (global and per-peer). *)

val add_sched_group : t -> overlapped:int -> saved_s:float -> unit
val add_batch : t -> calls:int -> unit
val incr_faults : ?kind:string -> t -> unit
val incr_timeouts : t -> unit
val incr_retries : t -> unit
val incr_fallbacks : t -> unit
val incr_dedup_hits : t -> unit
val incr_dedup_evictions : t -> unit
val add_txn_staged : t -> int -> unit
val incr_txn_commits : t -> unit
val incr_txn_aborts : t -> unit
val incr_forwarded : t -> unit
val incr_topo_resolutions : t -> unit
val incr_topo_failovers : t -> unit
val incr_topo_epoch_aborts : t -> unit
val incr_churn_events : t -> unit

val add_admitted : t -> wait_s:float -> unit
(** Count one admission, accumulating its queueing delay. *)

val incr_ov_shed : t -> unit
val incr_deadline_rejects : t -> unit
val incr_breaker_opens : t -> unit
val incr_breaker_shed : t -> unit
val incr_breaker_probes : t -> unit
val incr_retry_budget_stops : t -> unit
val incr_codec_compiled : t -> unit
val incr_codec_decodes : t -> unit
val add_codec_event_shreds : t -> int -> unit
val incr_codec_bailouts : t -> unit

val set_queue_depth : peer:string -> t -> int -> unit
(** Record the admission-queue depth a request found, in the
    [overload.queue_depth{peer=...}] gauge. *)

val set_peer_up : peer:string -> t -> bool -> unit
(** Record peer liveness in the [xrpc.peer_up{peer=...}] gauge: 1 after a
    successful exchange, 0 after a call exhausted its retry budget. *)

val set_exemplar : t -> string option -> unit
(** Install (or clear) the trace id of the run in flight. While set,
    every histogram observation carries it as an exemplar, so a tail
    outlier in a [--metrics-format prom] exposition links back to its
    trace. Untraced runs keep this [None] and the registry stays
    byte-identical. *)

(** {2 Timed scopes} *)

val now : unit -> float
val time_serialize : t -> (unit -> 'a) -> 'a
val time_shred : t -> (unit -> 'a) -> 'a

val time_remote : t -> (unit -> 'a) -> 'a
(** Remote-execution timing; nested (de)serialize/shred costs are
    subtracted (they are accounted in their own buckets). Negative
    residues are clamped to 0 and counted in {!remote_clamps}. *)
