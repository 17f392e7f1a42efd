(* Per-execution cost accounting, matching the Fig. 8 breakdown:
   shred / local exec / (de)serialize / remote exec / network. Wall-clock
   components are measured; network time is simulated from real message
   bytes and the configured link parameters.

   A view over an Xd_obs.Metrics registry: every unlabeled counter and
   seconds gauge is declared once below, and owns a slot in each
   instance's handle array, so a write hashes no name. *)

module M = Xd_obs.Metrics

type 'h metric = { slot : int; name : string; lazily : bool }
type counter = M.counter metric
type gauge = M.gauge metric

(* Declarations, newest first. All of them are made below, while this
   module initialises, so every [create] sees the complete lists. *)
let counters : counter list ref = ref []
let gauges : gauge list ref = ref []

let declare decls ?(lazily = false) name =
  let d = { slot = List.length !decls; name; lazily } in
  decls := d :: !decls;
  d

let counter ?lazily name = declare counters ?lazily name
let gauge ?lazily name = declare gauges ?lazily name

let message_bytes = counter "xrpc.bytes.message"
let document_bytes = counter "xrpc.bytes.document"
let messages = counter "xrpc.messages"
let documents = counter "xrpc.documents_fetched"
let calls = counter "xrpc.calls"
let sched_groups = counter "sched.groups"
let sched_overlapped = counter "sched.overlapped_calls"
let sched_saved_s = gauge "sched.saved_s"
let batch_envelopes = counter "xrpc.batch.envelopes"
let batch_calls = counter "xrpc.batch.calls"
let serialize_s = gauge "time.serialize_s"
let shred_s = gauge "time.shred_s"
let remote_exec_s = gauge "time.remote_exec_s"
let network_s = gauge "time.network_s"
let faults = counter "xrpc.faults"
let timeouts = counter "xrpc.timeouts"
let retries = counter "xrpc.retries"
let fallbacks = counter "xrpc.fallbacks"
let dedup_hits = counter "xrpc.dedup.hits"
let dedup_evictions = counter "xrpc.dedup.evictions"
let txn_staged = counter "txn.staged"
let txn_commits = counter "txn.commits"
let txn_aborts = counter "txn.aborts"
let forwarded = counter "xrpc.forwarded"
let topo_resolutions = counter "topo.resolutions"
let topo_failovers = counter "topo.failovers"
let topo_epoch_aborts = counter "topo.epoch_aborts"
let topo_churn_events = counter "topo.churn_events"
let remote_clamps = counter "time.remote_clamps"

(* The feature buckets register on first write: a run that never uses
   overload control, a compiled codec or a journal leaves them out of
   the registry, so its dump stays byte-identical to a build without
   the feature. *)
let ov_admitted = counter ~lazily:true "overload.admitted"
let ov_shed = counter ~lazily:true "overload.shed"
let ov_deadline_rejects = counter ~lazily:true "overload.deadline_rejects"
let ov_queue_wait_s = gauge ~lazily:true "overload.queue_wait_s"
let breaker_opens = counter ~lazily:true "overload.breaker.opens"
let breaker_shed = counter ~lazily:true "overload.breaker.shed"
let breaker_probes = counter ~lazily:true "overload.breaker.probes"
let retry_budget_stops = counter ~lazily:true "overload.retry_budget_stops"
let codec_compiled = counter ~lazily:true "codec.compiled"
let codec_decodes = counter ~lazily:true "codec.decodes"
let codec_event_shreds = counter ~lazily:true "codec.event_shreds"
let codec_bailouts = counter ~lazily:true "codec.bailouts"
let journal_records = counter ~lazily:true "journal.records"

let declared () =
  let mode d = (d.name, if d.lazily then `Lazy else `Eager) in
  List.rev_map mode !counters @ List.rev_map mode !gauges

type t = {
  reg : M.t;
  counter_slots : M.counter option array;
  gauge_slots : M.gauge option array;
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

let slots register reg decls =
  let a = Array.make (List.length decls) None in
  List.iter
    (fun d -> if not d.lazily then a.(d.slot) <- Some (register reg d.name))
    decls;
  a

let create () =
  let reg = M.create () in
  let hist ?(buckets = time_buckets) name = M.histogram ~buckets reg name in
  {
    reg;
    counter_slots = slots M.counter reg !counters;
    gauge_slots = slots M.gauge reg !gauges;
    hist_serialize = hist "hist.serialize_s";
    hist_shred = hist "hist.shred_s";
    hist_remote = hist "hist.remote_exec_s";
    hist_message_bytes = hist ~buckets:byte_buckets "hist.message_bytes";
    exemplar = None;
  }

let set_exemplar t tid = t.exemplar <- tid
let registry t = t.reg
let reset t = M.reset t.reg

(* Generic operations. A write registers a lazy metric; a read never
   does, and reads an unregistered one as zero. *)
let handle register slots reg d =
  match slots.(d.slot) with
  | Some h -> h
  | None ->
    let h = register reg d.name in
    slots.(d.slot) <- Some h;
    h

let incr ?(by = 1) t c = M.incr ~by (handle M.counter t.counter_slots t.reg c)
let add t g s = M.add (handle M.gauge t.gauge_slots t.reg g) s
let set t g s = M.set (handle M.gauge t.gauge_slots t.reg g) s

let count t c =
  match t.counter_slots.(c.slot) with Some h -> M.counter_value h | None -> 0

let seconds t g =
  match t.gauge_slots.(g.slot) with Some h -> M.gauge_value h | None -> 0.

let documents_fetched t = count t documents
let total_bytes t = count t message_bytes + count t document_bytes

let is_empty t =
  seconds t network_s = 0.
  && List.for_all
       (fun c -> count t c = 0)
       [ messages; documents; message_bytes; document_bytes; faults;
         timeouts; retries; fallbacks; dedup_hits; dedup_evictions;
         txn_staged; txn_commits; txn_aborts; ov_admitted; ov_shed;
         ov_deadline_rejects; breaker_shed ]

let add_message t ~bytes =
  incr ~by:bytes t message_bytes;
  incr t messages;
  M.observe ?exemplar:t.exemplar t.hist_message_bytes (float_of_int bytes)

(* Labeled series: one registry name per label value. *)
let calls_prefix = "xrpc.calls{peer="
let peer_up_prefix = "xrpc.peer_up{peer="
let queue_depth_prefix = "overload.queue_depth{peer="

let incr_call ~peer t =
  incr t calls;
  M.incr (M.counter t.reg (calls_prefix ^ peer ^ "}"))

let calls_to t peer =
  let name = calls_prefix ^ peer ^ "}" in
  if List.mem name (M.names t.reg) then M.counter_value (M.counter t.reg name)
  else 0

let incr_faults ?kind t =
  incr t faults;
  Option.iter (fun k -> M.incr (M.counter t.reg ("xrpc.faults." ^ k))) kind

let set_queue_depth ~peer t depth =
  M.set (M.gauge t.reg (queue_depth_prefix ^ peer ^ "}")) (float_of_int depth)

(* Per-peer liveness: 1 after the last exchange with the peer succeeded,
   0 after it exhausted its retry budget. Peers never contacted have no
   gauge at all, which keeps fault-free dumps unchanged. *)
let set_peer_up ~peer t up =
  M.set (M.gauge t.reg (peer_up_prefix ^ peer ^ "}")) (if up then 1. else 0.)

let down_peers t =
  let pl = String.length peer_up_prefix in
  M.names t.reg
  |> List.filter (fun n ->
         String.length n > pl + 1
         && String.starts_with ~prefix:peer_up_prefix n
         && M.gauge_value (M.gauge t.reg n) < 0.5)
  |> List.map (fun n -> String.sub n pl (String.length n - pl - 1))

type scope = Serialize | Shred | Remote

let bucket = function
  | Serialize -> serialize_s
  | Shred -> shred_s
  | Remote -> remote_exec_s

let time t scope f =
  let nested () = seconds t serialize_s +. seconds t shred_s in
  let n0 = nested () in
  let t0 = Xd_obs.Trace.now () in
  let r = f () in
  let d = Xd_obs.Trace.now () -. t0 in
  let h, d =
    match scope with
    | Serialize -> (t.hist_serialize, d)
    | Shred -> (t.hist_shred, d)
    | Remote ->
      (* remote exec excludes the serialize/shred time charged inside it,
         which the inner scopes account into their own buckets *)
      let residue = d -. (nested () -. n0) in
      if residue < 0. then incr t remote_clamps;
      (t.hist_remote, Float.max 0. residue)
  in
  add t (bucket scope) d;
  M.observe ?exemplar:t.exemplar h d;
  r
