(** A distributed execution session.

    Installs the execute-at and fn:doc hooks into the evaluator, builds
    and dispatches the XRPC messages, and keeps the per-session endpoint
    state that realizes bulk-RPC-style fragment deduplication across the
    calls of one query execution. The whole exchange exercises real code
    paths — requests and responses are serialized to XML text, accounted
    on the simulated wire, and parsed back on the other side. *)

type recorded = {
  dir : [ `Request of string | `Response of string ];
  text : string;
}

type t

val create :
  ?record:recorded list ref -> ?bulk:bool ->
  ?schema:(string -> string list) -> ?depth:int -> ?timeout_s:float ->
  ?retries:int -> ?dedup_cap:int -> ?schedule:(int * int list) list ->
  ?deadline:float -> ?retry_budget:int ref -> ?codec:Codec.t ->
  ?tracer:Xd_obs.Trace.t -> Network.t -> Peer.t -> Message.passing -> t
(** A session for one querying peer. [record] captures every message (for
    tests and demos); [bulk] (default true) enables session-wide fragment
    caching — the wire behaviour of the paper's bulk RPC; disabling it is
    the ablation baseline where every call re-ships its nodes; [schema]
    makes by-projection messages schema-aware (mandatory children of kept
    elements are preserved); [depth] guards against runaway nested calls.

    [timeout_s] (default 1.0) is the per-call timeout on the simulated
    clock: a call whose request or response is lost waits it out, then
    retries; [retries] (default 2) bounds the re-sends, with
    deterministic exponential backoff also charged to the simulated
    clock. Retried requests carry a request-id (only on a faulty wire —
    fault-free traffic is byte-identical to a build without the fault
    layer) and servers replay cached responses, so update-carrying calls
    apply at most once. When a peer stays unreachable and the body is
    provably read-only, the call degrades to data shipping: the
    documents are fetched and the body evaluates locally. Otherwise the
    caller sees a typed {!Message.Xrpc_timeout} (with the number of
    attempts actually made) or {!Message.Xrpc_fault} — never a leaked
    native exception.

    [dedup_cap] (default 256) bounds the server-side response cache that
    backs exactly-once replay of request-ids; the oldest entries are
    evicted FIFO and counted in {!Stats}.

    [deadline], when given, is the query's end-to-end budget in
    simulated seconds (PROTOCOL.md, "Deadlines & overload"): every
    outgoing message carries the remaining budget as a fixed-width
    [deadline] attribute, pre-subtracting its own wire time, so the
    receiver's budget equals the sender's at the moment of receipt.
    Callees refuse work the budget can no longer cover with a typed
    non-retryable [xrpc:deadline.exceeded] fault, and the caller stops
    (re)sending once the budget is gone. Absent (default), no deadline
    attribute is ever stamped and the wire is byte-identical to a build
    without the feature.

    [retry_budget], when given, is a shared pool of retries for the
    whole plan execution: every session of the fan-out (this one and all
    its server sessions) draws from the same counter, and once it is
    spent no call retries again — the last failure surfaces through the
    usual degradation ladder. Absent, each call retries up to [retries]
    independently.

    [schedule] is the effect analysis's overlap schedule (from
    {!Xd_effects.Effects.schedule}, passed structurally to keep the
    layering acyclic): [(anchor, members)] pairs naming a Seq/Let/For
    vertex and the provably non-interfering read-only [execute at] calls
    under it. At each anchor the member calls run as one overlap group —
    the simulated clock bills the group by its longest member (critical
    path), and on a fault-free wire same-peer members coalesce into one
    [<batch>] envelope per peer and round trip. On a faulty wire
    batching is disabled and the per-member messages stay byte-identical
    to the sequential run, so fault schedules replay exactly; results
    and update lists are identical either way. An empty schedule
    (default) is plain sequential evaluation.

    [codec], when given, installs the plan's compiled per-call-site
    codecs (PROTOCOL.md, "Compiled codecs"): each call site's request
    writer, compiled with the plan, and decoders for provably-atomic
    responses, which a call outside a transaction tries first (a
    response they do not match is read generically, counted in
    [codec.bailouts]). Its server sessions get none: the bodies they
    evaluate are parsed afresh, with vertex ids no plan knows. Absent
    (default), each call compiles its writer when it is sent — {!Message.compile_request}, the same function, so the wire
    is byte-identical either way. Every incoming message the decoder
    does not take is read by {!Message.parse}.

    [tracer], when given, records hierarchical spans for every call,
    attempt, (de)serialization, evaluation, fallback and 2PC exchange of
    the session (and, via the wire-propagated [<trace>] header, of every
    peer it talks to). Tracing is observationally transparent: results,
    {!Stats} and any seeded fault schedule are unchanged. *)

val recorded : t -> recorded list option

val backoff_s : key:string -> attempt:int -> float
(** Deterministic jittered exponential backoff charged before re-send
    [attempt] (attempt 2 is the first retry): the base
    [0.05 * 2^(attempt-2)] seconds stretched by a factor in [1, 2)
    derived from an FNV-1a hash of ["key#attempt"]. The key is
    ["<request-id>@<host>"] when an id is assigned (faulty wire) — the
    hop is part of the key, so the same logical request re-driven at a
    different peer after a forward/failover draws fresh jitter instead
    of replaying the first hop's schedule — else just the host. 2PC
    control retries under the same policy with the key
    ["<txn>/<action>@<host>"]. Concurrent retries of different requests
    decorrelate while any one (request, hop)'s schedule replays exactly.
    Exposed for the pinning unit test. *)

val set_current_span : t -> Xd_obs.Trace.span option -> unit
(** Set the ambient span new spans parent under — the executor installs
    its per-query root span here. [None] detaches (spans started while
    detached begin fresh traces). *)

val server_session : t -> string -> t
(** The server-side session for calls to the given host (created lazily;
    holds the server's endpoint state and supports nested outgoing
    calls). *)

val resolve_doc : t -> Xd_lang.Env.t -> string -> Xd_xml.Doc.t
(** fn:doc semantics: local names resolve in the peer's store; xrpc://
    URIs on other hosts are fetched whole (data shipping) with per-session
    caching; xrpc:// URIs naming this peer resolve locally. *)

val handle_request : t -> client_name:string -> string -> string
(** Server side: parse a request, shred its fragments, evaluate the body,
    serialize the response. Exposed for protocol tests. *)

val execute_at :
  t -> Xd_lang.Env.t -> Xd_lang.Ast.execute_at -> host:string ->
  args:(Xd_lang.Ast.var * Xd_lang.Value.t) list -> Xd_lang.Value.t
(** Client side of one call. An empty host, or this peer's own name,
    executes locally with full fidelity. *)

val env_for : t -> funcs:Xd_lang.Ast.func list -> Xd_lang.Env.t
val execute : t -> Xd_lang.Ast.query -> Xd_lang.Value.t

val execute_txn : t -> Xd_lang.Ast.query -> Xd_lang.Value.t
(** Like {!execute}, but update-carrying remote calls stage their pending
    update lists at the callee instead of applying them, and the whole
    query commits atomically through two-phase commit when evaluation
    completes: the coordinator journals its decision, then drives
    prepare/commit (or abort) at every participant. All-or-nothing under
    any fault schedule: after {!recover}, either every peer applied its
    share exactly once or none did. A query that touches no remote
    participant skips 2PC entirely and is wire-identical to {!execute}. *)

val recover : t -> unit
(** Coordinator-side crash recovery: re-drive every transaction this
    peer's journal shows as begun but not resolved — journaled decisions
    are pushed to commit at all participants, undecided transactions are
    aborted (presumed abort). Idempotent. *)
