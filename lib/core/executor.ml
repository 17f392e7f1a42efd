(* End-to-end distributed execution: decompose a query under a strategy and
   run it at a client peer against the (simulated) network, collecting the
   Fig. 8 cost breakdown. *)

module Ast = Xd_lang.Ast
module Value = Xd_lang.Value

type timing = {
  wall_s : float; (* total measured wall time *)
  local_exec_s : float; (* wall minus the other measured buckets *)
  serialize_s : float;
  shred_s : float;
  remote_exec_s : float;
  network_s : float; (* simulated wire time *)
  message_bytes : int;
  document_bytes : int;
  messages : int;
  faults : int; (* wire faults injected *)
  timeouts : int; (* calls that waited out the per-call timeout *)
  retries : int; (* re-sent requests *)
  fallbacks : int; (* calls degraded to local data-shipped evaluation *)
  dedup_hits : int; (* retried requests answered from the server cache *)
  dedup_evictions : int; (* cache entries dropped by the bounded dedup cache *)
  txn_staged : int; (* update operations staged at remote participants *)
  txn_commits : int; (* distributed transactions committed *)
  txn_aborts : int; (* distributed transactions aborted *)
  calls : int; (* remote execute-at calls issued *)
  sched_groups : int; (* overlap groups the scheduler executed *)
  sched_overlapped : int; (* calls that ran overlapped on the sim clock *)
  sched_saved_s : float; (* simulated wire time saved by overlap *)
  batch_envelopes : int; (* coalesced multi-call request envelopes *)
  batch_calls : int; (* calls that travelled inside batch envelopes *)
  forwarded : int; (* <forward> redirects followed *)
  topo_resolutions : int; (* computed hosts resolved via the catalog *)
  topo_failovers : int; (* calls re-routed to a replica of a down owner *)
  topo_epoch_aborts : int; (* prepares refused on an epoch mismatch *)
  ov_admitted : int; (* requests admitted by the bounded-capacity model *)
  ov_shed : int; (* requests shed on a full admission queue *)
  ov_deadline_rejects : int; (* requests refused past their budget *)
  ov_queue_wait_s : float; (* queueing delay charged to the sim clock *)
  breaker_opens : int; (* circuit-breaker closed->open transitions *)
  breaker_shed : int; (* calls shed locally by an open breaker *)
  breaker_probes : int; (* half-open probes let through *)
  retry_budget_stops : int; (* retries skipped on a spent budget *)
  codec_compiled : int; (* requests emitted by a compiled encoder *)
  codec_decodes : int; (* responses read by a compiled decoder *)
  codec_event_shreds : int; (* subtrees shredded by the event fast path *)
  codec_bailouts : int; (* compiled attempts that fell back to generic *)
}

let total_time t =
  (* the paper's "total execution time": computation wall time plus the
     simulated network time *)
  t.wall_s +. t.network_s

type run = {
  value : Value.t;
  plan : Decompose.plan;
  timing : timing;
  trace_root : Xd_obs.Trace.span option;
      (* the query's root span when the run was traced *)
}

exception Plan_rejected of Xd_verify.Verify.report

let verify_plan ?schedule ?shapes ?catalog ~(client : Xd_xrpc.Peer.t)
    (plan : Decompose.plan) =
  Xd_verify.Verify.verify
    ~self:(Xd_xrpc.Peer.name client)
    ?schedule ?shapes ?catalog plan.Decompose.strategy plan.Decompose.query

(* The effect analysis's overlap schedule for a plan, as this client
   would run it: [(anchor, members)] pairs of Seq/Let/For anchor vertices
   and the provably non-interfering read-only execute-at calls under
   them. Empty when nothing can overlap. *)
let plan_schedule ~(client : Xd_xrpc.Peer.t) (plan : Decompose.plan) =
  let module E = Xd_effects.Effects in
  let q = plan.Decompose.query in
  let res = E.analyze ~self:(Xd_xrpc.Peer.name client) q in
  List.map
    (fun (g : E.group) -> (g.E.anchor, g.E.members))
    (E.schedule res q)

(* Where may updating expressions execute? A static walk over the plan
   that tracks the site of the code being visited: top-level code runs at
   the client, an execute-at body at its (literal) host, and a computed
   host is unknowable. Function bodies are walked at each call's site,
   because the same function may carry its updates to different peers.
   Updates confined to a single site need no distributed commit — each
   peer already applies its own PUL atomically — so [`Auto] picks 2PC
   exactly when updates may span two or more sites (or a site is
   unknowable), keeping single-peer queries on the plain wire. *)
let txn_needed ~self (q : Ast.query) =
  let module S = Set.Make (String) in
  let find_func name =
    List.find_opt (fun f -> f.Ast.f_name = name) q.Ast.funcs
  in
  let unknown = ref false in
  let sites = ref S.empty in
  let rec walk seen site (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Insert_node _ | Ast.Delete_node _ | Ast.Replace_value _
    | Ast.Rename_node _ ->
      (match site with
      | Some h -> sites := S.add h !sites
      | None -> unknown := true);
      List.iter (walk seen site) (Ast.children e)
    | Ast.Execute_at x ->
      (* the host and argument expressions evaluate at the caller *)
      List.iter (walk seen site) (x.Ast.host :: List.map snd x.Ast.params);
      let callee =
        match x.Ast.host.Ast.desc with
        | Ast.Literal (Ast.A_string "") -> site
        | Ast.Literal (Ast.A_string h) -> Some h
        | _ -> None
      in
      walk seen callee x.Ast.body
    | Ast.Fun_call (name, args) ->
      List.iter (walk seen site) args;
      if not (S.mem name seen) then (
        match find_func name with
        | Some f -> walk (S.add name seen) site f.Ast.f_body
        | None -> ())
    | _ -> List.iter (walk seen site) (Ast.children e)
  in
  walk S.empty (Some self) q.Ast.body;
  !unknown || S.cardinal !sites > 1

(* Everything [run_plan] derives from the plan before it executes: the
   overlap schedule, the compiled codec and the verifier's report. *)
type prelude = {
  schedule : (int * int list) list;
  compiled_codec : Xd_xrpc.Codec.t option;
  report : Xd_verify.Verify.report;
  stamp : Ast.paths_stamp;
}

let compile_prelude ~parallel ~codec (net : Xd_xrpc.Network.t)
    ~(client : Xd_xrpc.Peer.t) (plan : Decompose.plan) =
  (* the overlap schedule rides into both the verifier (which re-derives
     the footprints and vets it) and the session (which executes it) *)
  let schedule = if parallel then plan_schedule ~client plan else [] in
  (* wire-shape analysis and codec generation — the descriptors codegen
     consumed ride into the verifier, which re-derives each one with an
     independent analysis run and rejects the plan on disagreement *)
  let compiled_codec =
    if codec then
      let shapes = Xd_shape.Shape.analyze plan.Decompose.query in
      Some
        (Xd_xrpc.Codec.compile
           ~passing:(Strategy.passing plan.Decompose.strategy)
           ~caller:(Xd_xrpc.Peer.name client)
           shapes plan.Decompose.query)
    else None
  in
  (* the verifier judges the plan against the very catalog the session
     will resolve hosts with *)
  let report =
    verify_plan ~schedule
      ?shapes:(Option.map Xd_xrpc.Codec.descriptors compiled_codec)
      ?catalog:net.Xd_xrpc.Network.catalog ~client plan
  in
  { schedule; compiled_codec; report; stamp = Ast.stamp_paths plan.Decompose.query }

(* Preludes are memoised on the physical plan — the decomposer hands a
   repeated query the same plan — under everything else they depend on:
   the client's name, the two flags and the catalog's version (which
   moves on every placement change, so a register or move re-verifies).
   An entry dies with its plan. *)
module Plans = Memo.Make (struct
  type t = Decompose.plan

  let id (p : t) = p.Decompose.query.Ast.body.Ast.id
end)

let preludes : (string * bool * bool * int option, prelude) Plans.t =
  Plans.create ()

(* Execute an already-decomposed (or hand-written) plan. The verifier
   runs first: a plan with error-severity findings is refused unless
   [~force:true] — distributed execution of such a plan would silently
   diverge from the local reference semantics. A memoised report is
   enforced the same way on every run. *)
let run_plan ?record ?bulk ?timeout_s ?retries ?dedup_cap ?deadline
    ?retry_budget ?(txn = `Auto) ?(parallel = true) ?(codec = true)
    ?(force = false) ?trace (net : Xd_xrpc.Network.t)
    ~(client : Xd_xrpc.Peer.t) (plan : Decompose.plan) : run =
  let strategy = plan.Decompose.strategy in
  let { schedule; compiled_codec; report; _ } =
    Plans.find_or_add preludes plan
      ( Xd_xrpc.Peer.name client,
        parallel,
        codec,
        Option.map Xd_topo.Catalog.version net.Xd_xrpc.Network.catalog )
      ~valid:(fun p -> Ast.paths_unchanged p.stamp)
      (fun () -> compile_prelude ~parallel ~codec net ~client plan)
  in
  if (not force) && not (Xd_verify.Verify.ok report) then
    raise (Plan_rejected report);
  let stats = net.Xd_xrpc.Network.stats in
  (* the tracer's simulated clock is the run's accumulated wire time *)
  Option.iter
    (fun tr ->
      Xd_obs.Trace.set_sim tr (fun () -> Xd_xrpc.Stats.network_s stats))
    trace;
  let session =
    (* the retry budget is a shared pool: one counter for the whole plan
       execution, drawn on by every session of the fan-out *)
    Xd_xrpc.Session.create ?record ?bulk ?timeout_s ?retries ?dedup_cap
      ~schedule ?deadline
      ?retry_budget:(Option.map ref retry_budget)
      ?codec:compiled_codec ?tracer:trace net client
      (Strategy.passing strategy)
  in
  let use_txn =
    match txn with
    | `Always -> true
    | `Off -> false
    | `Auto ->
      txn_needed ~self:(Xd_xrpc.Peer.name client) plan.Decompose.query
  in
  Xd_xrpc.Stats.reset stats;
  let trace_root =
    Xd_obs.Trace.start trace ~parent:Xd_obs.Trace.Root
      ~peer:(Xd_xrpc.Peer.name client) ~cat:"query" "execute"
  in
  Xd_obs.Trace.add_attr trace_root "strategy"
    (Xd_obs.Trace.S (Strategy.to_string strategy));
  Xd_xrpc.Session.set_current_span session trace_root;
  (* a traced run's histogram observations carry its trace id as an
     exemplar; untraced runs leave the registry byte-identical *)
  Xd_xrpc.Stats.set_exemplar stats
    (Option.map
       (fun (s : Xd_obs.Trace.span) -> s.Xd_obs.Trace.trace_id)
       trace_root);
  let t0 = Xd_obs.Trace.now () in
  let value =
    Fun.protect
      ~finally:(fun () ->
        Xd_xrpc.Session.set_current_span session None;
        Xd_xrpc.Stats.set_exemplar stats None;
        Xd_obs.Trace.finish trace trace_root)
      (fun () ->
        if use_txn then
          Xd_xrpc.Session.execute_txn session plan.Decompose.query
        else Xd_xrpc.Session.execute session plan.Decompose.query)
  in
  let wall = Xd_obs.Trace.now () -. t0 in
  let module St = Xd_xrpc.Stats in
  let timing =
    {
      wall_s = wall;
      local_exec_s =
        Float.max 0.
          (wall -. St.serialize_s stats -. St.shred_s stats
          -. St.remote_exec_s stats);
      serialize_s = St.serialize_s stats;
      shred_s = St.shred_s stats;
      remote_exec_s = St.remote_exec_s stats;
      network_s = St.network_s stats;
      message_bytes = St.message_bytes stats;
      document_bytes = St.document_bytes stats;
      messages = St.messages stats;
      faults = St.faults stats;
      timeouts = St.timeouts stats;
      retries = St.retries stats;
      fallbacks = St.fallbacks stats;
      dedup_hits = St.dedup_hits stats;
      dedup_evictions = St.dedup_evictions stats;
      txn_staged = St.txn_staged stats;
      txn_commits = St.txn_commits stats;
      txn_aborts = St.txn_aborts stats;
      calls = St.calls stats;
      sched_groups = St.sched_groups stats;
      sched_overlapped = St.sched_overlapped stats;
      sched_saved_s = St.sched_saved_s stats;
      batch_envelopes = St.batch_envelopes stats;
      batch_calls = St.batch_calls stats;
      forwarded = St.forwarded stats;
      topo_resolutions = St.topo_resolutions stats;
      topo_failovers = St.topo_failovers stats;
      topo_epoch_aborts = St.topo_epoch_aborts stats;
      ov_admitted = St.ov_admitted stats;
      ov_shed = St.ov_shed stats;
      ov_deadline_rejects = St.ov_deadline_rejects stats;
      ov_queue_wait_s = St.ov_queue_wait_s stats;
      breaker_opens = St.breaker_opens stats;
      breaker_shed = St.breaker_shed stats;
      breaker_probes = St.breaker_probes stats;
      retry_budget_stops = St.retry_budget_stops stats;
      codec_compiled = St.codec_compiled stats;
      codec_decodes = St.codec_decodes stats;
      codec_event_shreds = St.codec_event_shreds stats;
      codec_bailouts = St.codec_bailouts stats;
    }
  in
  { value; plan; timing; trace_root }

let run ?record ?bulk ?timeout_s ?retries ?dedup_cap ?deadline ?retry_budget
    ?txn ?parallel ?codec ?code_motion ?force ?trace
    (net : Xd_xrpc.Network.t) ~(client : Xd_xrpc.Peer.t)
    (strategy : Strategy.t) (q : Ast.query) : run =
  let plan = Decompose.decompose ?code_motion strategy q in
  run_plan ?record ?bulk ?timeout_s ?retries ?dedup_cap ?deadline
    ?retry_budget ?txn ?parallel ?codec ?force ?trace net ~client plan

(* Coordinator crash recovery: a fresh session for the client re-drives
   every transaction its journal shows as begun but unresolved. The
   passing semantics is irrelevant — recovery exchanges only 2PC control
   envelopes and applies journaled PULs. *)
let recover ?timeout_s ?retries ?dedup_cap (net : Xd_xrpc.Network.t)
    ~(client : Xd_xrpc.Peer.t) =
  let session =
    Xd_xrpc.Session.create ?timeout_s ?retries ?dedup_cap net client
      Xd_xrpc.Message.By_fragment
  in
  Xd_xrpc.Session.recover session

(* Reference local execution (all peers' documents reachable without cost
   accounting): the semantics any decomposition must reproduce. Documents
   are resolved directly in the owning peer's store, so node identity is
   exact. *)
let run_local (net : Xd_xrpc.Network.t) ~(client : Xd_xrpc.Peer.t)
    (q : Ast.query) : Value.t =
  let resolve_doc env uri =
    match Xd_dgraph.Dgraph.split_xrpc_uri uri with
    | Some (host, doc_name) -> (
      let peer = Xd_xrpc.Network.find_peer net host in
      match Xd_xrpc.Peer.find_doc peer doc_name with
      | Some d -> d
      | None -> Xd_lang.Env.dynamic_error "document %S not found" doc_name)
    | None -> Xd_lang.Env.default_resolve_doc env uri
  in
  Xd_lang.Eval.run_query ~resolve_doc (Xd_xrpc.Peer.store client) q
