(* Per-execution cost accounting, matching the Fig. 8 breakdown:
   shred / local exec / (de)serialize / remote exec / network. Wall-clock
   components are measured; network time is simulated from real message
   bytes and the configured link parameters.

   The buckets live in an Xd_obs.Metrics registry; this module is the
   typed facade the runtime mutates and the executor/tests read. *)

module M = Xd_obs.Metrics

type t = {
  reg : M.t;
  message_bytes : M.counter;
  document_bytes : M.counter;
  messages : M.counter;
  documents_fetched : M.counter;
  calls : M.counter; (* remote execute-at calls issued (per-peer under
                        xrpc.calls{peer=...}) *)
  sched_groups : M.counter; (* overlap groups executed *)
  sched_overlapped : M.counter; (* calls that ran overlapped *)
  sched_saved_s : M.gauge; (* simulated wire time saved by overlap *)
  batch_envelopes : M.counter; (* batched request envelopes sent *)
  batch_calls : M.counter; (* calls coalesced into batch envelopes *)
  serialize_s : M.gauge;
  shred_s : M.gauge;
  remote_exec_s : M.gauge;
  network_s : M.gauge;
  faults : M.counter;
  timeouts : M.counter;
  retries : M.counter;
  fallbacks : M.counter;
  dedup_hits : M.counter;
  dedup_evictions : M.counter;
  txn_staged : M.counter;
  txn_commits : M.counter;
  txn_aborts : M.counter;
  forwarded : M.counter; (* <forward> redirects followed by callers *)
  topo_resolutions : M.counter; (* computed hosts resolved via the catalog *)
  topo_failovers : M.counter; (* reads re-routed to a replica of a down owner *)
  topo_epoch_aborts : M.counter; (* 2PC prepares refused on an epoch mismatch *)
  topo_churn_events : M.counter; (* scripted membership events fired *)
  remote_clamps : M.counter;
  (* The overload/breaker buckets register lazily, on first write: runs
     without the overload layer never touch them, so their registry
     dumps (and the cram tests pinning those) stay byte-identical to a
     build without the feature. *)
  ov_admitted : M.counter Lazy.t; (* admitted by the capacity model *)
  ov_shed : M.counter Lazy.t; (* shed on a full admission queue *)
  ov_deadline_rejects : M.counter Lazy.t; (* budget < wait + service *)
  ov_queue_wait_s : M.gauge Lazy.t; (* total queueing delay charged *)
  breaker_opens : M.counter Lazy.t; (* closed->open transitions *)
  breaker_shed : M.counter Lazy.t; (* shed locally by an open breaker *)
  breaker_probes : M.counter Lazy.t; (* half-open probes let through *)
  retry_budget_stops : M.counter Lazy.t; (* retries skipped: pool spent *)
  (* The codec buckets are lazy for the same reason: codec-off runs (and
     plans with no compilable call site) leave the compiled-codec counters
     unregistered, and the event-shred counter appears only once a message
     carried fragment/copy content. *)
  codec_compiled : M.counter Lazy.t; (* requests emitted by compiled encoders *)
  codec_decodes : M.counter Lazy.t; (* responses read by compiled decoders *)
  codec_event_shreds : M.counter Lazy.t; (* subtrees built while reading *)
  codec_bailouts : M.counter Lazy.t; (* compiled attempts that fell back *)
  hist_serialize : M.histogram;
  hist_shred : M.histogram;
  hist_remote : M.histogram;
  hist_message_bytes : M.histogram;
  (* trace id of the run in flight, if it is traced: observations made
     while set carry it as a histogram exemplar, so a tail outlier in an
     exposition links back to its trace. *)
  mutable exemplar : string option;
}

let byte_buckets = [ 128.; 512.; 2048.; 8192.; 32768.; 131072.; 524288. ]

(* The default decade ladder quantizes sub-millisecond simulated service
   times into one or two edges; a 1-2-5 ladder keeps adjacent
   percentiles in distinct buckets down to a microsecond. *)
let time_buckets =
  [ 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
    1e-2; 2e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. ]

let create () =
  let reg = M.create () in
  {
    reg;
    message_bytes = M.counter reg "xrpc.bytes.message";
    document_bytes = M.counter reg "xrpc.bytes.document";
    messages = M.counter reg "xrpc.messages";
    documents_fetched = M.counter reg "xrpc.documents_fetched";
    calls = M.counter reg "xrpc.calls";
    sched_groups = M.counter reg "sched.groups";
    sched_overlapped = M.counter reg "sched.overlapped_calls";
    sched_saved_s = M.gauge reg "sched.saved_s";
    batch_envelopes = M.counter reg "xrpc.batch.envelopes";
    batch_calls = M.counter reg "xrpc.batch.calls";
    serialize_s = M.gauge reg "time.serialize_s";
    shred_s = M.gauge reg "time.shred_s";
    remote_exec_s = M.gauge reg "time.remote_exec_s";
    network_s = M.gauge reg "time.network_s";
    faults = M.counter reg "xrpc.faults";
    timeouts = M.counter reg "xrpc.timeouts";
    retries = M.counter reg "xrpc.retries";
    fallbacks = M.counter reg "xrpc.fallbacks";
    dedup_hits = M.counter reg "xrpc.dedup.hits";
    dedup_evictions = M.counter reg "xrpc.dedup.evictions";
    txn_staged = M.counter reg "txn.staged";
    txn_commits = M.counter reg "txn.commits";
    txn_aborts = M.counter reg "txn.aborts";
    forwarded = M.counter reg "xrpc.forwarded";
    topo_resolutions = M.counter reg "topo.resolutions";
    topo_failovers = M.counter reg "topo.failovers";
    topo_epoch_aborts = M.counter reg "topo.epoch_aborts";
    topo_churn_events = M.counter reg "topo.churn_events";
    remote_clamps = M.counter reg "time.remote_clamps";
    ov_admitted = lazy (M.counter reg "overload.admitted");
    ov_shed = lazy (M.counter reg "overload.shed");
    ov_deadline_rejects = lazy (M.counter reg "overload.deadline_rejects");
    ov_queue_wait_s = lazy (M.gauge reg "overload.queue_wait_s");
    breaker_opens = lazy (M.counter reg "overload.breaker.opens");
    breaker_shed = lazy (M.counter reg "overload.breaker.shed");
    breaker_probes = lazy (M.counter reg "overload.breaker.probes");
    retry_budget_stops = lazy (M.counter reg "overload.retry_budget_stops");
    codec_compiled = lazy (M.counter reg "codec.compiled");
    codec_decodes = lazy (M.counter reg "codec.decodes");
    codec_event_shreds = lazy (M.counter reg "codec.event_shreds");
    codec_bailouts = lazy (M.counter reg "codec.bailouts");
    hist_serialize = M.histogram ~buckets:time_buckets reg "hist.serialize_s";
    hist_shred = M.histogram ~buckets:time_buckets reg "hist.shred_s";
    hist_remote = M.histogram ~buckets:time_buckets reg "hist.remote_exec_s";
    hist_message_bytes = M.histogram ~buckets:byte_buckets reg
        "hist.message_bytes";
    exemplar = None;
  }

let set_exemplar t tid = t.exemplar <- tid

let registry t = t.reg
let reset t = M.reset t.reg

(* Readers *)
let message_bytes t = M.counter_value t.message_bytes
let document_bytes t = M.counter_value t.document_bytes
let messages t = M.counter_value t.messages
let documents_fetched t = M.counter_value t.documents_fetched
let calls t = M.counter_value t.calls

let calls_to t peer =
  M.counter_value (M.counter t.reg ("xrpc.calls{peer=" ^ peer ^ "}"))

let sched_groups t = M.counter_value t.sched_groups
let sched_overlapped t = M.counter_value t.sched_overlapped
let sched_saved_s t = M.gauge_value t.sched_saved_s
let batch_envelopes t = M.counter_value t.batch_envelopes
let batch_calls t = M.counter_value t.batch_calls
let serialize_s t = M.gauge_value t.serialize_s
let shred_s t = M.gauge_value t.shred_s
let remote_exec_s t = M.gauge_value t.remote_exec_s
let network_s t = M.gauge_value t.network_s
let faults t = M.counter_value t.faults
let timeouts t = M.counter_value t.timeouts
let retries t = M.counter_value t.retries
let fallbacks t = M.counter_value t.fallbacks
let dedup_hits t = M.counter_value t.dedup_hits
let dedup_evictions t = M.counter_value t.dedup_evictions
let txn_staged t = M.counter_value t.txn_staged
let txn_commits t = M.counter_value t.txn_commits
let txn_aborts t = M.counter_value t.txn_aborts
let forwarded t = M.counter_value t.forwarded
let topo_resolutions t = M.counter_value t.topo_resolutions
let topo_failovers t = M.counter_value t.topo_failovers
let topo_epoch_aborts t = M.counter_value t.topo_epoch_aborts
let topo_churn_events t = M.counter_value t.topo_churn_events

let peer_up_prefix = "xrpc.peer_up{peer="

let down_peers t =
  let pl = String.length peer_up_prefix in
  List.filter_map
    (fun n ->
      if String.length n > pl + 1 && String.sub n 0 pl = peer_up_prefix then
        if M.gauge_value (M.gauge t.reg n) < 0.5 then
          Some (String.sub n pl (String.length n - pl - 1))
        else None
      else None)
    (M.names t.reg)
let remote_clamps t = M.counter_value t.remote_clamps

(* Readers of the lazy buckets must not force them: forcing registers
   the metric, and a mere read (the executor snapshots every bucket on
   every run) must leave a feature-less registry dump untouched. *)
let lazy_counter l = if Lazy.is_val l then M.counter_value (Lazy.force l) else 0

let lazy_gauge l = if Lazy.is_val l then M.gauge_value (Lazy.force l) else 0.

let ov_admitted t = lazy_counter t.ov_admitted
let ov_shed t = lazy_counter t.ov_shed
let ov_deadline_rejects t = lazy_counter t.ov_deadline_rejects
let ov_queue_wait_s t = lazy_gauge t.ov_queue_wait_s
let breaker_opens t = lazy_counter t.breaker_opens
let breaker_shed t = lazy_counter t.breaker_shed
let breaker_probes t = lazy_counter t.breaker_probes
let retry_budget_stops t = lazy_counter t.retry_budget_stops
let codec_compiled t = lazy_counter t.codec_compiled
let codec_decodes t = lazy_counter t.codec_decodes
let codec_event_shreds t = lazy_counter t.codec_event_shreds
let codec_bailouts t = lazy_counter t.codec_bailouts

let queue_depth_prefix = "overload.queue_depth{peer="

let set_queue_depth ~peer t depth =
  M.set (M.gauge t.reg (queue_depth_prefix ^ peer ^ "}")) (float_of_int depth)

let total_bytes t = message_bytes t + document_bytes t

let is_empty t =
  messages t = 0 && documents_fetched t = 0 && total_bytes t = 0
  && network_s t = 0.
  && faults t + timeouts t + retries t + fallbacks t + dedup_hits t
     + dedup_evictions t = 0
  && txn_staged t + txn_commits t + txn_aborts t = 0
  && ov_admitted t + ov_shed t + ov_deadline_rejects t + breaker_shed t = 0

(* Writers *)
let add_message t ~bytes =
  M.incr ~by:bytes t.message_bytes;
  M.incr t.messages;
  M.observe ?exemplar:t.exemplar t.hist_message_bytes (float_of_int bytes)

let add_document t ~bytes =
  M.incr ~by:bytes t.document_bytes;
  M.incr t.documents_fetched

let add_network_s t s = M.add t.network_s s

(* Rewind/advance the simulated clock: the scheduler bills an overlap
   group by its longest member, not the sum. *)
let set_network_s t s = M.set t.network_s s

let incr_call ~peer t =
  M.incr t.calls;
  M.incr (M.counter t.reg ("xrpc.calls{peer=" ^ peer ^ "}"))

let add_sched_group t ~overlapped ~saved_s =
  M.incr t.sched_groups;
  M.incr ~by:overlapped t.sched_overlapped;
  M.add t.sched_saved_s saved_s

let add_batch t ~calls =
  M.incr t.batch_envelopes;
  M.incr ~by:calls t.batch_calls

let incr_faults ?kind t =
  M.incr t.faults;
  match kind with
  | None -> ()
  | Some k -> M.incr (M.counter t.reg ("xrpc.faults." ^ k))

let incr_timeouts t = M.incr t.timeouts
let incr_retries t = M.incr t.retries
let incr_fallbacks t = M.incr t.fallbacks
let incr_dedup_hits t = M.incr t.dedup_hits
let incr_dedup_evictions t = M.incr t.dedup_evictions
let add_txn_staged t n = M.incr ~by:n t.txn_staged
let incr_txn_commits t = M.incr t.txn_commits
let incr_txn_aborts t = M.incr t.txn_aborts
let incr_forwarded t = M.incr t.forwarded
let incr_topo_resolutions t = M.incr t.topo_resolutions
let incr_topo_failovers t = M.incr t.topo_failovers
let incr_topo_epoch_aborts t = M.incr t.topo_epoch_aborts
let incr_churn_events t = M.incr t.topo_churn_events

let add_admitted t ~wait_s =
  M.incr (Lazy.force t.ov_admitted);
  M.add (Lazy.force t.ov_queue_wait_s) wait_s

let incr_ov_shed t = M.incr (Lazy.force t.ov_shed)
let incr_deadline_rejects t = M.incr (Lazy.force t.ov_deadline_rejects)
let incr_breaker_opens t = M.incr (Lazy.force t.breaker_opens)
let incr_breaker_shed t = M.incr (Lazy.force t.breaker_shed)
let incr_breaker_probes t = M.incr (Lazy.force t.breaker_probes)
let incr_retry_budget_stops t = M.incr (Lazy.force t.retry_budget_stops)
let incr_codec_compiled t = M.incr (Lazy.force t.codec_compiled)
let incr_codec_decodes t = M.incr (Lazy.force t.codec_decodes)
let add_codec_event_shreds t n = M.incr ~by:n (Lazy.force t.codec_event_shreds)
let incr_codec_bailouts t = M.incr (Lazy.force t.codec_bailouts)

(* Per-peer liveness: 1 after the last exchange with the peer succeeded,
   0 after it exhausted its retry budget. Peers never contacted have no
   gauge at all, which keeps fault-free dumps unchanged. *)
let set_peer_up ~peer t up =
  M.set (M.gauge t.reg (peer_up_prefix ^ peer ^ "}")) (if up then 1. else 0.)

(* Timed scopes *)
let now = Xd_obs.Trace.now

let timed t g h f =
  let t0 = now () in
  let r = f () in
  let d = now () -. t0 in
  M.add g d;
  M.observe ?exemplar:t.exemplar h d;
  r

let time_serialize t f = timed t t.serialize_s t.hist_serialize f
let time_shred t f = timed t t.shred_s t.hist_shred f

let time_remote t f =
  (* remote exec excludes nested (de)serialize/shred costs, which the inner
     calls account into their own buckets; we subtract them here. *)
  let s0 = serialize_s t and h0 = shred_s t in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let nested = serialize_s t -. s0 +. (shred_s t -. h0) in
  let residue = dt -. nested in
  if residue < 0. then M.incr t.remote_clamps;
  let d = Float.max 0. residue in
  M.add t.remote_exec_s d;
  M.observe ?exemplar:t.exemplar t.hist_remote d;
  r
