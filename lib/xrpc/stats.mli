(** Per-execution cost accounting, matching the Fig. 8 breakdown:
    shred / local exec / (de)serialize / remote exec / network.
    Wall-clock components are measured; network time is simulated from
    real message bytes and the configured link.

    A view over an {!Xd_obs.Metrics} registry: every unlabeled counter
    and seconds gauge is declared once, with its registry name and
    whether it registers at {!create} or on its first write (the
    feature buckets from [ov_admitted] on). A handful of generic
    operations read and write any of them. DESIGN.md, "Run accounting
    from one declaration". *)

type t
type 'h metric
type counter = Xd_obs.Metrics.counter metric
type gauge = Xd_obs.Metrics.gauge metric

(** {2 Declared metrics} *)

val message_bytes : counter  (* SOAP request+response bytes *)
val document_bytes : counter  (* whole documents fetched (data shipping) *)
val messages : counter
val documents : counter  (* documents fetched *)
val calls : counter  (* remote execute-at calls (local ones excluded) *)
val sched_groups : counter  (* overlap groups the scheduler executed *)
val sched_overlapped : counter  (* calls overlapped on the simulated clock *)
val sched_saved_s : gauge  (* wire time saved by overlap (sum - max) *)
val batch_envelopes : counter  (* batched multi-call envelopes sent *)
val batch_calls : counter  (* calls that travelled inside batches *)
val serialize_s : gauge
val shred_s : gauge
val remote_exec_s : gauge  (* nested serialize/shred time excluded *)
val network_s : gauge  (* simulated wire time: the run's simulated clock *)
val faults : counter  (* wire faults injected *)
val timeouts : counter  (* calls that waited out the per-call timeout *)
val retries : counter  (* re-sent requests *)
val fallbacks : counter  (* calls degraded to local data-shipped eval *)
val dedup_hits : counter  (* retried requests answered from the cache *)
val dedup_evictions : counter  (* dedup-cache entries evicted by the cap *)
val txn_staged : counter  (* update primitives staged at participants *)
val txn_commits : counter
val txn_aborts : counter
val forwarded : counter  (* [<forward>] redirects followed by callers *)
val topo_resolutions : counter  (* computed hosts resolved via the catalog *)
val topo_failovers : counter  (* reads re-routed to a replica of a down owner *)
val topo_epoch_aborts : counter  (* 2PC prepares refused on an epoch mismatch *)
val topo_churn_events : counter  (* scripted membership events fired *)
val remote_clamps : counter  (* negative remote residues clamped to 0 *)
val ov_admitted : counter  (* requests admitted by the capacity model *)
val ov_shed : counter  (* requests shed on a full admission queue *)
val ov_deadline_rejects : counter  (* budget < wait + service, or expired *)
val ov_queue_wait_s : gauge  (* queueing delay charged to the clock *)
val breaker_opens : counter  (* circuit-breaker closed->open transitions *)
val breaker_shed : counter  (* calls shed locally by an open breaker *)
val breaker_probes : counter  (* half-open probe calls let through *)
val retry_budget_stops : counter  (* retries skipped: the pool was spent *)
val codec_compiled : counter  (* requests and batch slots written by a plan-time writer *)
val codec_decodes : counter  (* responses read by a compiled decoder *)
val codec_event_shreds : counter  (* subtrees built while a message was read *)
val codec_bailouts : counter  (* compiled decodes that fell back *)
val journal_records : counter  (* records appended to any peer journal *)

val declared : unit -> (string * [ `Eager | `Lazy ]) list
(** Every declared metric's registry name and registration mode. *)

(** {2 Generic operations} *)

val create : unit -> t
(** Registers every eager metric and the four [hist.*] histograms. *)

val incr : ?by:int -> t -> counter -> unit
val add : t -> gauge -> float -> unit
val set : t -> gauge -> float -> unit

val count : t -> counter -> int
val seconds : t -> gauge -> float
(** Reads never register: an unregistered metric reads 0. *)

val registry : t -> Xd_obs.Metrics.t
(** The backing registry: the declared metrics once registered, the
    [hist.*] histograms and the labeled series below. *)

val reset : t -> unit
(** Zero every registered metric; registrations survive. *)

val documents_fetched : t -> int
val total_bytes : t -> int

val is_empty : t -> bool
(** No messages, documents, wire time, faults or transactions. *)

val add_message : t -> bytes:int -> unit
(** One message on the wire: bytes, count and [hist.message_bytes]. *)

val set_exemplar : t -> string option -> unit
(** Install (or clear) the trace id of the run in flight: while set,
    every histogram observation carries it as an exemplar, so a tail
    outlier in a [--metrics-format prom] exposition links back to its
    trace. *)

(** {2 Labeled series} *)

val incr_call : peer:string -> t -> unit
(** {!calls} and [xrpc.calls{peer=...}]. *)

val calls_to : t -> string -> int

val incr_faults : ?kind:string -> t -> unit
(** {!faults}, and [xrpc.faults.<kind>] when a kind is given. *)

val set_queue_depth : peer:string -> t -> int -> unit
(** The queue depth a request found: [overload.queue_depth{peer=...}]. *)

val set_peer_up : peer:string -> t -> bool -> unit
(** [xrpc.peer_up{peer=...}]: 1 after a successful exchange, 0 after a
    call exhausted its retry budget. *)

val down_peers : t -> string list
(** Peers whose [xrpc.peer_up] gauge reads 0, sorted by name. *)

(** {2 Timed scopes} *)

type scope = Serialize | Shred | Remote

val bucket : scope -> gauge
(** {!serialize_s}, {!shred_s} or {!remote_exec_s}. *)

val time : t -> scope -> (unit -> 'a) -> 'a
(** Charge [f]'s wall time to the scope's bucket and histogram. A
    [Remote] scope subtracts the serialize/shred time charged inside it
    and clamps a negative residue to 0, counting it in {!remote_clamps}. *)
