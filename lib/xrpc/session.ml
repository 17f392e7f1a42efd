(* A distributed execution session: installs the execute-at and fn:doc
   hooks into the evaluator, builds/dispatches the XRPC messages, and keeps
   the per-session endpoint state that realizes bulk-RPC-style fragment
   deduplication across the calls of one query execution.

   The whole exchange exercises real code paths: requests and responses are
   serialized to XML text, accounted on the simulated wire, and parsed back
   on the other side. Only the socket is simulated. *)

module X = Xd_xml
module Ast = Xd_lang.Ast
module Value = Xd_lang.Value
module Env = Xd_lang.Env
module Eval = Xd_lang.Eval
module Trace = Xd_obs.Trace

type recorded = { dir : [ `Request of string | `Response of string ]; text : string }

(* Coordinator state of one distributed transaction: the id travels on
   every update-carrying request of the query, and the participants are
   collected from response acknowledgements (transitively — a server that
   fanned out reports its own participants back). *)
type coord = {
  txn_id : string;
  mutable participants : string list;
  epoch : int option;
      (* catalog epoch when the transaction started (dynamic topology
         only): <prepare> carries it, participants whose catalog moved
         on vote abort *)
}

type t = {
  net : Network.t;
  self : Peer.t;
  passing : Message.passing;
  bulk : bool; (* session-wide fragment caching (bulk RPC); off = per-call *)
  schema : (string -> string list) option;
      (* schema-aware projection: mandatory child elements per element *)
  ep : Message.endpoint; (* this peer's endpoint state *)
  remote_sessions : (string, t) Hashtbl.t; (* server sessions by peer name *)
  server_funcs : (string, Ast.func list) Hashtbl.t; (* module cache per client *)
  fetched : (string, X.Doc.t) Hashtbl.t; (* data-shipped documents *)
  funcs_shipped : (string, unit) Hashtbl.t; (* hosts that got our module *)
  record : recorded list ref option;
  depth : int;
  timeout_s : float; (* simulated per-call timeout *)
  retries : int; (* extra attempts after the first *)
  replied : (string, string) Hashtbl.t;
      (* server side: request-id -> cached successful response; retried
         (or duplicated) update-carrying calls apply at most once *)
  replied_order : string Queue.t; (* FIFO eviction order for the cache *)
  dedup_cap : int; (* size cap on the dedup cache *)
  mutable next_req : int; (* client side: request-id counter *)
  mutable txn : coord option;
      (* the transaction in scope: set on the coordinator for the whole
         execution, and on a server session while it evaluates a
         txn-tagged request (so nested calls propagate the id) *)
  sched : (int, int list list) Hashtbl.t;
      (* effect-analysis schedule, coordinator only: anchor (Seq/Let/For)
         vertex id -> overlap groups, each the consecutive Execute_at
         vertex ids of one group in sequential evaluation order *)
  deadline_rel : float option;
      (* coordinator only: the query's total budget in simulated seconds;
         pinned to an absolute deadline lazily at first use, because the
         executor resets the stats clock after creating the session *)
  mutable deadline_at : float option;
      (* the absolute simulated-clock deadline in scope: pinned from
         [deadline_rel] on the coordinator, set per-request on a server
         session from the wire attribute (scoped by the admission gate) *)
  retry_budget : int ref option;
      (* per-query retry budget, shared by reference with every server
         session of one plan execution: retries anywhere in the fan-out
         draw from the same pool *)
  mutable retry_after_hint : float option;
      (* the retry-after suggestion parsed off the most recent fault
         response; consumed (and cleared) by the next backoff charge *)
  codec : Codec.t option;
      (* the plan's compiled per-call-site codecs (request writers and
         atomic-response decoders), on the coordinator only: a server
         session's calls come from bodies it parsed afresh, whose vertex
         ids no plan knows. None = each call compiles its writer when
         sent, same wire *)
  tracer : Trace.t option; (* shared across every session of one run *)
  mutable cur : Trace.span option;
      (* the ambient span new spans parent under: the executor's root on
         the coordinator, the active attempt/evaluate span elsewhere *)
}

let create ?record ?(bulk = true) ?schema ?(depth = 0) ?(timeout_s = 1.0)
    ?(retries = 2) ?(dedup_cap = 256) ?(schedule = []) ?deadline ?retry_budget
    ?codec ?tracer net self passing =
  let sched = Hashtbl.create (max 1 (List.length schedule)) in
  List.iter
    (fun (anchor, members) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt sched anchor) in
      Hashtbl.replace sched anchor (prev @ [ members ]))
    schedule;
  {
    net;
    self;
    passing;
    bulk;
    schema;
    ep = Message.make_endpoint self;
    remote_sessions = Hashtbl.create 4;
    server_funcs = Hashtbl.create 4;
    fetched = Hashtbl.create 8;
    funcs_shipped = Hashtbl.create 4;
    record;
    depth;
    timeout_s;
    retries;
    replied = Hashtbl.create 8;
    replied_order = Queue.create ();
    dedup_cap = max 1 dedup_cap;
    next_req = 0;
    txn = None;
    sched;
    deadline_rel = deadline;
    deadline_at = None;
    retry_budget;
    retry_after_hint = None;
    codec;
    tracer;
    cur = None;
  }

let set_current_span session sp = session.cur <- sp

(* ---------------- tracing helpers -------------------------------------- *)

(* Run [f] with [sp] as the session's ambient span. *)
let with_cur session sp f =
  let prev = session.cur in
  session.cur <- sp;
  Fun.protect ~finally:(fun () -> session.cur <- prev) (fun () -> f ())

(* A span under the current ambient one, ambient for the duration of
   [f]. All no-ops when the session has no tracer. *)
let traced ?peer session ~cat name f =
  let peer = Option.value ~default:(Peer.name session.self) peer in
  Trace.with_span session.tracer
    ~parent:(Trace.ambient session.cur)
    ~peer ~cat name
    (fun sp -> with_cur session sp (fun () -> f sp))

(* An event marker: the caller attaches attributes and finishes it. *)
let span_note session ~cat name =
  Trace.start session.tracer
    ~parent:(Trace.ambient session.cur)
    ~peer:(Peer.name session.self) ~cat name

(* Record on [sp] how far a byte count moved across [f]: network spans
   carry the bytes they billed (retransmissions included, since the
   delta spans the whole exchange). No-op when untraced. *)
let attr_delta_i sp key reader f =
  match sp with
  | None -> f ()
  | Some _ ->
      let before = reader () in
      Fun.protect
        ~finally:(fun () -> Trace.add_attr sp key (Trace.I (reader () - before)))
        f

(* An accounted region: [f] under one Stats timed scope, in a span of
   the bucket's category whose [busy_s] attribute is exactly what the
   region moved the bucket by. Span wall clocks are separate clock
   reads and drift against the gauges; the delta is what lets Profile
   reconcile per-vertex sums with the registry totals to the float. (A
   remote span's delta includes nested remote charges — Profile
   subtracts descendant remote spans to recover the self amount.) *)
let accounted ?peer session scope name f =
  let stats = session.net.Network.stats in
  let cat =
    match scope with
    | Stats.Serialize -> "serialize"
    | Stats.Shred -> "shred"
    | Stats.Remote -> "remote"
  in
  traced ?peer session ~cat name @@ fun sp ->
  match sp with
  | None -> Stats.time stats scope f
  | Some _ ->
    let seconds () = Stats.seconds stats (Stats.bucket scope) in
    let before = seconds () in
    Fun.protect
      ~finally:(fun () ->
        Trace.add_attr sp "busy_s" (Trace.F (seconds () -. before)))
      (fun () -> Stats.time stats scope f)

(* The run's simulated clock: its accumulated wire time. *)
let sim_now session = Stats.seconds session.net.Network.stats Stats.network_s

let recorded session = Option.map (fun r -> List.rev !r) session.record

let record session dir =
  match session.record with
  | Some r ->
    let text = match dir with `Request t | `Response t -> t in
    r := { dir; text } :: !r
  | None -> ()

(* ---------------- retry backoff ---------------------------------------- *)

(* FNV-1a over [s], folded to 16 bits. Hand-rolled (not Hashtbl.hash) so
   the jittered schedule is pinnable across OCaml versions/platforms. *)
let fnv16 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0xffffL)

(* Deterministic per-request jitter on the exponential backoff: attempt n
   (n >= 2) waits base * [1, 2) where base doubles per retry and the
   fraction is keyed on (request id, attempt). Retries of one overlap
   group thus spread out instead of storming a recovering peer in
   lockstep, and a given request replays the same schedule every run. *)
let backoff_s ~key ~attempt =
  let base = 0.05 *. (2. ** float_of_int (attempt - 2)) in
  let jitter =
    float_of_int (fnv16 (Printf.sprintf "%s#%d" key attempt)) /. 65536.
  in
  base *. (1. +. jitter)

(* ---------------- deadline budget -------------------------------------- *)

(* The absolute deadline in scope, if any. A coordinator's relative
   budget is pinned against the simulated clock at first use — after the
   executor's stats reset — and a server session carries the absolute
   deadline its admission gate installed for the current request. *)
let deadline_now session =
  match session.deadline_at with
  | Some _ as d -> d
  | None -> (
    match session.deadline_rel with
    | None -> None
    | Some rel ->
      let d = sim_now session +. rel in
      session.deadline_at <- Some d;
      Some d)

(* The budget left now, as an outgoing message stamps it. *)
let remaining_budget session =
  Option.map (fun d -> d -. sim_now session) (deadline_now session)

(* Charge one backoff wait to the simulated clock, honoring a server's
   retry-after suggestion when it exceeds our own jittered schedule. The
   hint is single-use: it belongs to the fault that carried it. *)
let charge_backoff session ~key ~attempt =
  let stats = session.net.Network.stats in
  let backoff = backoff_s ~key ~attempt in
  let wait =
    match session.retry_after_hint with
    | Some ra -> Float.max backoff ra
    | None -> backoff
  in
  session.retry_after_hint <- None;
  Stats.add stats Stats.network_s wait

(* The shared per-query retry pool: [true] when this retry may proceed
   (and is charged), [false] when the pool is spent. *)
let retry_allowed session =
  match session.retry_budget with
  | None -> true
  | Some b ->
    if !b > 0 then begin
      decr b;
      true
    end
    else begin
      Stats.incr session.net.Network.stats Stats.retry_budget_stops;
      false
    end

(* ---------------- call policy ------------------------------------------ *)

(* The call policy every client exchange retries under, data calls and
   2PC control alike. Attempt n >= 2 first draws on the shared retry
   budget, then waits out its jittered backoff keyed on [key]. An attempt
   that would start past the deadline is not made — budgets only shrink,
   so waiting cannot help — and [expired n] stands in for its reply.
   Each attempt is its own span, a sibling of its predecessors under the
   caller's span, carrying retry=N and whatever went wrong; the wire
   header names the attempt, so server-side spans attach to the attempt
   that actually delivered. [send] makes the round trip (None: a leg was
   lost, and the timeout is charged) and [read] interprets the reply
   inside the attempt span: a retryable typed fault out of [read]
   retries, any other exception propagates. [Ok] of the reply read, or
   [Error (attempts made, last failure)] once attempts or budget ran
   out. *)
let with_retries session ~key ~expired send read =
  let stats = session.net.Network.stats in
  session.retry_after_hint <- None;
  let rec attempt n last =
    if n > session.retries + 1 || (n > 1 && not (retry_allowed session)) then
      Error (n - 1, last)
    else begin
      if n > 1 then begin
        Stats.incr stats Stats.retries;
        charge_backoff session ~key ~attempt:n
      end;
      match deadline_now session with
      | Some d when sim_now session >= d ->
        Stats.incr stats Stats.ov_deadline_rejects;
        Ok (expired n)
      | _ -> (
        match
          traced session ~cat:"attempt" (Printf.sprintf "attempt %d" n)
          @@ fun asp ->
          Trace.add_attr asp "retry" (Trace.I (n - 1));
          match send asp with
          | None ->
            Stats.incr stats Stats.timeouts;
            Stats.add stats Stats.network_s session.timeout_s;
            Trace.add_attr asp "timeout" (Trace.B true);
            Error `Timeout
          | Some reply -> (
            match read asp reply with
            | r -> Ok r
            | exception Message.Xrpc_fault { host = _; code; reason }
              when Message.retryable code ->
              Trace.add_attr asp "fault"
                (Trace.S (Message.fault_code_to_string code));
              Error (`Fault (code, reason)))
        with
        | Ok r -> Ok r
        | Error last -> attempt (n + 1) last)
    end
  in
  attempt 1 `Timeout

(* The typed failure of a call whose attempts all failed retryably. *)
let failure_exn ~host attempts = function
  | `Timeout -> Message.Xrpc_timeout { host; attempts }
  | `Fault (code, reason) -> Message.Xrpc_fault { host; code; reason }

(* ---------------- dynamic topology helpers ----------------------------- *)

(* Redirect chains are bounded: after [max_forward_hops] unanswered
   redirects the call fails with xrpc:topo.unroutable. *)
let max_forward_hops = 4

(* The document names a body touches, as catalog keys: relative doc()
   names stay as-is, xrpc:// URIs lose their host part (ownership is the
   catalog's call, not the URI author's). Nested execute-at bodies are
   skipped — their documents are the nested call's routing problem. *)
let body_doc_names (body : Ast.expr) =
  let acc = ref [] in
  let rec go (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Execute_at x ->
      List.iter go (x.Ast.host :: List.map snd x.Ast.params)
    | _ ->
      List.iter
        (fun (d : Xd_dgraph.Dgraph.uri_dep) ->
          match d.Xd_dgraph.Dgraph.uri with
          | Xd_dgraph.Dgraph.Uri u ->
            let name =
              match Xd_dgraph.Dgraph.split_xrpc_uri u with
              | Some (_, n) -> n
              | None -> u
            in
            if not (List.mem name !acc) then acc := name :: !acc
          | Xd_dgraph.Dgraph.Wildcard | Xd_dgraph.Dgraph.Constr -> ())
        (Xd_dgraph.Dgraph.direct_uri_deps_of_vertex e);
      List.iter go (Ast.children e)
  in
  go body;
  List.rev !acc

(* The single catalogued owner of every document in [docs], if there is
   one. None when no doc is catalogued or the owners disagree — then the
   computed host stands as evaluated. *)
let catalog_owner cat docs =
  let owners =
    List.sort_uniq compare (List.filter_map (Xd_topo.Catalog.owner_of cat) docs)
  in
  match owners with [ o ] -> Some o | _ -> None

(* This peer's transaction journal — owned by the network so that every
   session serving the peer (and any later recovery session) shares it. *)
let journal session = Network.journal session.net (Peer.name session.self)

(* Cache a successful response under its request id, evicting the oldest
   entry once the cap is reached: the cache must not grow without bound
   over a long session (satellite of PR 3). An evicted id makes a very
   late retransmission re-evaluate — for updates that risk is closed by
   transactional staging, which dedups on (txn, request-id) in the
   journal instead. *)
let remember_reply session id resp =
  if not (Hashtbl.mem session.replied id) then begin
    Hashtbl.replace session.replied id resp;
    Queue.push id session.replied_order;
    if Queue.length session.replied_order > session.dedup_cap then begin
      let victim = Queue.pop session.replied_order in
      Hashtbl.remove session.replied victim;
      Stats.incr session.net.Network.stats Stats.dedup_evictions
    end
  end

(* Read one incoming message on the event route (Message.parse),
   counting the subtrees it shredded straight into pre-order arrays. *)
let parse_message session text =
  let msg = Message.parse text in
  let n = Hashtbl.length msg.Message.prebuilt in
  if n > 0 then
    Stats.incr ~by:n session.net.Network.stats Stats.codec_event_shreds;
  msg

let find_path names node =
  List.fold_left
    (fun acc name ->
      match acc with
      | None -> None
      | Some n -> Message.find_child n name)
    (Some node) names

(* Re-raise a parsed <env:Fault> as the typed fault it describes, keeping
   its retry-after hint for the retry loop. A fault whose own structure
   is broken raises Protocol_error. *)
let raise_fault session ~host f =
  let code, reason = Message.parse_fault f in
  session.retry_after_hint <- Message.parse_retry_after f;
  raise (Message.Xrpc_fault { host; code; reason })

(* The one reply reader: the first of the [expect]ed elements under
   env:Envelope/env:Body, with the parsed message that holds its content
   documents. A reply that does not parse, or holds neither an expected
   element nor an <env:Fault>, raises a *retryable* transport fault; an
   <env:Fault> re-raises as the typed fault it describes. [what] names
   the reply in those reasons. *)
let read_reply session ~host ~what ~expect text =
  let corrupt reason =
    raise
      (Message.Xrpc_fault { host; code = Message.Transport_corrupt; reason })
  in
  let msg =
    try parse_message session text
    with X.Parser.Error (m, pos) ->
      corrupt (Printf.sprintf "unparsable %s: %s (byte %d)" what m pos)
  in
  let find name =
    find_path [ "env:Envelope"; "env:Body"; name ]
      (X.Node.doc_node msg.Message.doc)
  in
  match List.find_map find expect with
  | Some n -> (n, msg)
  | None -> (
    match find "env:Fault" with
    | Some f -> raise_fault session ~host f
    | None ->
      corrupt
        (Printf.sprintf "%s is neither <%s> nor <env:Fault>" what
           (List.hd expect)))

(* The writer of one call's <request>: the call site's, compiled with
   the plan into the codec, or — without one (no codec, or a server's
   nested call) — one compiled now by the same function, so the wire is
   the same either way. *)
let request_writer session (x : Ast.execute_at) =
  match
    Option.bind session.codec (fun c -> Codec.find_writer c x.Ast.body.Ast.id)
  with
  | Some w ->
    Stats.incr session.net.Network.stats Stats.codec_compiled;
    w
  | None ->
    Message.compile_request ~passing:session.passing
      ~caller:(Peer.name session.self) x

(* The caller's functions ride along on its first call to each host. *)
let module_for session ~host funcs =
  match funcs with
  | [] -> None
  | _ when Hashtbl.mem session.funcs_shipped host -> None
  | _ ->
    Hashtbl.replace session.funcs_shipped host ();
    Some funcs

(* The server-side session object for calls from [session] to [host]:
   holds the server peer's endpoint (shredded parameters) and supports
   nested outgoing calls from that server. *)
let rec server_session session host =
  match Hashtbl.find_opt session.remote_sessions host with
  | Some s -> s
  | None ->
    if session.depth > 8 then
      Env.dynamic_error "XRPC: call nesting too deep at %s" host;
    let peer = Network.find_peer session.net host in
    let s =
      create ?record:session.record ~bulk:session.bulk ?schema:session.schema
        ~depth:(session.depth + 1) ~timeout_s:session.timeout_s
        ~retries:session.retries ~dedup_cap:session.dedup_cap
        ?retry_budget:session.retry_budget ?tracer:session.tracer
        session.net peer session.passing
    in
    Hashtbl.replace session.remote_sessions host s;
    s

(* ---------------- data shipping (fn:doc on xrpc:// URIs) -------------- *)

and resolve_doc session env uri =
  match Xd_dgraph.Dgraph.split_xrpc_uri uri with
  | None -> Env.default_resolve_doc env uri
  | Some (host, doc_name) -> (
    if host = Peer.name session.self then
      match Peer.find_doc session.self doc_name with
      | Some d -> d
      | None -> Env.dynamic_error "document %S not found at %s" doc_name host
    else
      (* Replica shortcut (dynamic topology): when the catalog lists this
         peer as a replica of the named document and a local copy exists,
         serve it instead of shipping the whole document over the wire —
         replicas serve reads, which is what makes failover cheap. *)
      match
        match session.net.Network.catalog with
        | Some cat
          when Network.topo_active session.net
               && Xd_topo.Catalog.serves cat
                    ~peer:(Peer.name session.self)
                    ~doc:doc_name ->
          Peer.find_doc session.self doc_name
        | _ -> None
      with
      | Some d -> d
      | None -> (
      match Hashtbl.find_opt session.fetched uri with
      | Some d -> d
      | None ->
        traced session ~cat:"doc" ("fetch " ^ uri) @@ fun dsp ->
        Trace.add_attr dsp "uri" (Trace.S uri);
        let stats = session.net.Network.stats in
        let speer = Network.find_peer session.net host in
        let doc =
          match Peer.find_doc speer doc_name with
          | Some d -> d
          | None ->
            Env.dynamic_error "document %S not found at %s" doc_name host
        in
        let text =
          accounted ~peer:host session Stats.Serialize "document" (fun () ->
              X.Serializer.doc doc)
        in
        (traced session ~cat:"network" ("ship " ^ doc_name) @@ fun nsp ->
         attr_delta_i nsp "bytes" (fun () -> Stats.total_bytes stats)
         @@ fun () ->
         Network.transfer ~kind:`Document session.net (String.length text));
        let d =
          accounted session Stats.Shred "document" (fun () ->
              X.Parser.parse ~store:(Peer.store session.self) ~uri text)
        in
        Hashtbl.replace session.fetched uri d;
        d))

(* The endpoint used to marshal/shred one exchange: the session-wide one
   under bulk RPC (fragments cached across the calls of the session), or a
   fresh one per call when bulk is disabled (the ablation baseline — every
   call re-ships its nodes and responses arrive as fresh copies). *)
and call_endpoint session =
  if session.bulk then session.ep else Message.make_endpoint session.self

(* ---------------- server side ----------------------------------------- *)

(* [session] here is the *server* session. Every failure below — a
   request that does not parse, ill-formed protocol content, or an error
   raised by the remote body — is answered with a proper <env:Fault>
   envelope carrying a code from the taxonomy, never a leaked native
   exception. Only asynchronous/implementation exceptions (Stack_overflow
   and friends) still propagate. *)
and handle_request session ~client_name request_text =
  (* A decodable <trace> header links this peer's spans under the
     caller's attempt span; without one (tracing off, or the header was
     lost to truncation / malformed) the call runs untraced. *)
  match (session.tracer, Message.peek_trace_header request_text) with
  | Some _, Some (trace_id, span_id) ->
    Trace.with_span session.tracer
      ~parent:(Trace.Remote { trace_id; span_id })
      ~peer:(Peer.name session.self) ~cat:"server" "handle"
      (fun sp ->
        Trace.add_attr sp "bytes" (Trace.I (String.length request_text));
        let resp =
          with_cur session sp (fun () ->
              handle_request_guarded session ~client_name request_text)
        in
        Trace.add_attr sp "resp_bytes" (Trace.I (String.length resp));
        resp)
  | _ -> handle_request_guarded session ~client_name request_text

(* Map an evaluation/parse failure to its protocol fault code and reason;
   [None] for asynchronous/implementation exceptions, which keep
   propagating. *)
and fault_of_exn = function
  | Message.Protocol_error m -> Some (Message.Protocol_malformed, m)
  | X.Parser.Error (m, pos) ->
    Some
      ( Message.Transport_corrupt,
        Printf.sprintf "unparsable request: %s (byte %d)" m pos )
  | Xd_lang.Parser.Error (m, pos) | Xd_lang.Lexer.Error (m, pos) ->
    Some
      ( Message.Protocol_malformed,
        Printf.sprintf "unparsable query body: %s (offset %d)" m pos )
  | Env.Dynamic_error m -> Some (Message.App_dynamic, m)
  | Value.Type_error m -> Some (Message.App_type, m)
  | Message.Xrpc_fault { host; code; reason } ->
    (* a nested call of the body failed: relay the upstream fault *)
    Some (code, Printf.sprintf "relayed from %s: %s" host reason)
  | Message.Xrpc_timeout { host; attempts } ->
    Some
      ( Message.Transport_timeout,
        Printf.sprintf "upstream peer %s did not answer (%d attempts)" host
          attempts )
  | Failure m -> Some (Message.Protocol_malformed, m)
  | _ -> None

and handle_request_guarded session ~client_name request_text =
  let stats = session.net.Network.stats in
  try handle_request_exn session ~client_name request_text
  with e -> (
    match fault_of_exn e with
    | None -> raise e
    | Some (code, reason) ->
      Stats.incr_faults ~kind:"app" stats;
      Trace.add_attr session.cur "fault"
        (Trace.S (Message.fault_code_to_string code));
      accounted session Stats.Serialize "fault" (fun () ->
          Message.write_fault ~code ~reason ()))

(* The admission + deadline gate. Every unit of real work — a <request>,
   a whole <batch> (units = its call count) or a 2PC control message —
   passes here before anything else runs: work whose deadline budget is
   already spent is refused outright (the dedup cache is not even
   consulted), a full admission queue sheds with a server-suggested
   retry-after, and admitted work is charged its queueing delay on the
   simulated clock. Catalog pushes are exempt — membership maintenance
   must keep flowing on an overloaded peer. With no overload model
   installed only the hard expiry check runs, and with no deadline
   attribute either the gate costs one attribute probe. *)
and admission_gate session node ~units k =
  let stats = session.net.Network.stats in
  let now = sim_now session in
  let remaining = Message.parse_deadline node in
  let abs = Option.map (fun r -> now +. r) remaining in
  let refuse code ?retry_after reason =
    (match code with
    | Message.Server_overloaded ->
      Stats.incr stats Stats.ov_shed;
      Stats.incr_faults ~kind:"overload" stats
    | _ ->
      Stats.incr stats Stats.ov_deadline_rejects;
      Stats.incr_faults ~kind:"deadline" stats);
    Trace.add_attr session.cur "fault"
      (Trace.S (Message.fault_code_to_string code));
    accounted session Stats.Serialize "fault" (fun () ->
        Message.write_fault ?retry_after ~code ~reason ())
  in
  let verdict =
    match session.net.Network.overload with
    | None -> (
      (* no admission model installed: only the hard expiry gate runs *)
      match remaining with
      | Some r when r <= 0. ->
        `Refused
          (refuse Message.Deadline_exceeded
             "deadline budget exhausted before evaluation began")
      | _ -> `Go)
    | Some ov -> (
      let peer = Peer.name session.self in
      match Overload.admit ov ~peer ~now ?deadline:remaining ~units () with
      | Overload.Hopeless { needed_s } ->
        `Refused
          (refuse Message.Deadline_exceeded
             (Printf.sprintf
                "remaining budget cannot cover queue wait + service \
                 (%.6fs needed)"
                needed_s))
      | Overload.Busy { retry_after_s } ->
        `Refused
          (refuse Message.Server_overloaded ~retry_after:retry_after_s
             (Printf.sprintf "admission queue full at %s" peer))
      | Overload.Admit { wait_s; depth; start = _; finish = _ } ->
        Stats.incr stats Stats.ov_admitted;
        Stats.add stats Stats.ov_queue_wait_s wait_s;
        Stats.set_queue_depth ~peer stats depth;
        if wait_s > 0. then begin
          Stats.add stats Stats.network_s wait_s;
          (* bill the queueing delay to the span handling this request,
             so profiles attribute it to the vertex that caused it *)
          Trace.add_attr session.cur "queue_wait_s" (Trace.F wait_s)
        end;
        `Go)
  in
  match verdict with
  | `Refused fault -> fault
  | `Go ->
    (* scope the request's absolute deadline onto this server session:
       nested outgoing calls see (and re-stamp) the shrinking budget *)
    let prev = session.deadline_at in
    Fun.protect
      ~finally:(fun () -> session.deadline_at <- prev)
      (fun () ->
        session.deadline_at <- abs;
        k ())

and handle_request_exn session ~client_name request_text =
  let stats = session.net.Network.stats in
  let body, msg =
    accounted session Stats.Shred "request" (fun () ->
        let msg = parse_message session request_text in
        let root = X.Node.doc_node msg.Message.doc in
        match find_path [ "env:Envelope"; "env:Body" ] root with
        | Some b -> (b, msg)
        | None ->
          Message.protocol_error
            "XRPC message without <env:Envelope>/<env:Body>")
  in
  match
    List.find_map
      (fun (name, action) ->
        Option.map (fun n -> (action, n)) (Message.find_child body name))
      [
        ("prepare", Message.Prepare);
        ("commit", Message.Commit);
        ("abort", Message.Abort);
      ]
  with
  | Some (action, n) ->
    admission_gate session n ~units:1 (fun () ->
        handle_txn_control session action
          (Message.req_attr n "txn")
          ~epoch:(Message.attr_of n "epoch"))
  | None -> (
    match Message.find_child body "batch" with
    | Some batch ->
      admission_gate session batch
        ~units:(max 1 (List.length (Message.children_named batch "request")))
        (fun () -> handle_batch session ~client_name msg batch)
    | None -> (
      (* a catalog push: validate it and ack with our view of its epoch —
         the in-process network already shares the authoritative catalog,
         so accepting is acking *)
      match Message.find_child body "catalog" with
      | Some c ->
        let cat = Message.parse_catalog c in
        Message.write_catalog_ack ~epoch:(Xd_topo.Catalog.epoch cat)
      | None ->
      (* a <forward> is a response-position envelope; one arriving as a
         request is ill-formed protocol content and answered with a typed
         fault like any other (satellite: message tolerance) *)
      if Message.find_child body "forward" <> None then
        Message.protocol_error
          "unexpected <forward> in request position (redirects are \
           responses)";
      let req =
        match Message.find_child body "request" with
        | Some r -> r
        | None ->
          Message.protocol_error
            "XRPC message without <env:Envelope>/<env:Body>/<request>"
      in
      admission_gate session req ~units:1 @@ fun () ->
      let ep = call_endpoint session in
      let req_id = Message.attr_of req "request-id" in
      match Option.bind req_id (Hashtbl.find_opt session.replied) with
      | Some cached ->
        (* a retransmission of a request we already answered: replay the
           response instead of re-evaluating (at-most-once updates) *)
        Stats.incr stats Stats.dedup_hits;
        Trace.add_attr session.cur "dedup" (Trace.B true);
        cached
      | None ->
        let resp =
          Message.envelope
            (handle_parsed session ~client_name ~ep ?req_id msg req)
        in
        (match req_id with
        | Some id -> remember_reply session id resp
        | None -> ());
        resp))

(* One <batch> of independent calls: each slot is handled exactly like a
   standalone request and answered in place — a <response> on success, an
   inner <env:Fault> on failure — so one failing call never poisons its
   batch mates. Batches only travel on a fault-free wire, so slots carry
   no request-ids and need no dedup. *)
and handle_batch session ~client_name msg batch =
  let stats = session.net.Network.stats in
  let reqs = Message.children_named batch "request" in
  if reqs = [] then
    Message.protocol_error "XRPC <batch> without <request> calls";
  traced session ~cat:"server"
    (Printf.sprintf "batch (%d calls)" (List.length reqs))
  @@ fun bsp ->
  Trace.add_attr bsp "calls" (Trace.I (List.length reqs));
  let slot req =
    (* a nested call of an earlier slot may have burned the envelope's
       whole budget: remaining slots are answered late, not evaluated *)
    match deadline_now session with
    | Some d when sim_now session >= d ->
      Stats.incr stats Stats.ov_deadline_rejects;
      Message.fault_body ~code:Message.Deadline_exceeded
        ~reason:"batch slot reached past the deadline budget" ()
    | _ -> (
      let ep = call_endpoint session in
      match handle_parsed session ~client_name ~ep msg req with
      | resp -> resp
      | exception e -> (
        match fault_of_exn e with
        | None -> raise e
        | Some (code, reason) ->
          Stats.incr_faults ~kind:"app" stats;
          Message.fault_body ~code ~reason ()))
  in
  (* slots evaluate in request order — the order the sequential run would
     have issued the calls in *)
  let slots = List.fold_left (fun acc r -> slot r :: acc) [] reqs in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<batch";
  Message.buf_attr buf "calls" (string_of_int (List.length reqs));
  Buffer.add_char buf '>';
  List.iter (Buffer.add_string buf) (List.rev slots);
  Buffer.add_string buf "</batch>";
  Message.envelope (Buffer.contents buf)

(* Participant side of 2PC. All three actions are idempotent, so control
   messages need no dedup: a duplicated or retried prepare/commit/abort
   re-acks the same way. Unknown transactions vote no / ack aborted —
   presumed abort. *)
and handle_txn_control session action txn ~epoch =
  let stats = session.net.Network.stats in
  let j = journal session in
  traced session ~cat:"txn" (Message.txn_action_to_string action) @@ fun tsp ->
  Trace.add_attr tsp "txn" (Trace.S txn);
  let ack a =
    Trace.add_attr tsp "ack" (Trace.S (Message.txn_ack_to_string a));
    accounted session Stats.Serialize "ack" (fun () ->
        Message.write_txn_ack ~txn ~ack:a)
  in
  match action with
  | Message.Prepare ->
    (* Under dynamic topology <prepare> carries the coordinator's catalog
       epoch from when the transaction started; if ownership has moved
       since, some staged PUL may sit at a peer that no longer owns its
       target — vote abort, the staged state is released and every store
       stays untouched (presumed abort does the rest). *)
    let stale =
      match (epoch, session.net.Network.catalog) with
      | Some e, Some cat when Network.topo_active session.net -> (
        match int_of_string_opt e with
        | Some e -> e <> Xd_topo.Catalog.epoch cat
        | None -> Message.protocol_error "bad epoch %S on <prepare>" e)
      | _ -> false
    in
    if stale then begin
      Stats.incr stats Stats.topo_epoch_aborts;
      Trace.add_attr tsp "stale-epoch" (Trace.B true);
      Journal.abort j ~txn;
      ack Message.Ack_aborted
    end
    else if Journal.prepare j ~txn then ack Message.Ack_prepared
    else ack Message.Ack_aborted
  | Message.Abort ->
    Journal.abort j ~txn;
    ack Message.Ack_aborted
  | Message.Commit -> (
    match Journal.commit j ~txn with
    | `Already -> ack Message.Ack_committed
    | `Unknown ->
      Message.protocol_error
        "commit for unknown or aborted transaction %s" txn
    | `Apply puls ->
      accounted session Stats.Remote "apply staged" (fun () ->
          ignore (Xd_lang.Update.apply_staged (Peer.store session.self) puls));
      Journal.committed j ~txn;
      ack Message.Ack_committed)

and handle_parsed session ~client_name ~ep ?req_id msg req =
  let passing = Message.passing_of_string (Message.req_attr req "passing") in
  let txn_attr = Message.attr_of req "txn" in
  accounted session Stats.Shred "fragments" (fun () ->
      Message.shred_fragments msg ep ~from_host:client_name
        (Message.find_child req "fragments"));
  (* module: parse and cache the caller's function definitions *)
  (match Message.find_child req "module" with
  | Some m ->
    let text = X.Node.string_value m in
    let q = Xd_lang.Parser.parse_query (text ^ "\n()") in
    Hashtbl.replace session.server_funcs client_name q.Ast.funcs
  | None -> ());
  let funcs =
    Option.value ~default:[] (Hashtbl.find_opt session.server_funcs client_name)
  in
  let body_text =
    match Message.find_child req "query" with
    | Some qn -> X.Node.string_value qn
    | None -> Message.protocol_error "XRPC request without <query>"
  in
  (* parsed once: by the forward check under dynamic topology, else
     inside the evaluation's accounted region *)
  let body = lazy (Xd_lang.Parser.parse_expr_string body_text) in
  let args =
    match Message.find_child req "call" with
    | None -> Message.protocol_error "XRPC request without <call>"
    | Some call ->
      List.map
        (fun seq ->
          ( Message.req_attr seq "param",
            Message.shred_sequence msg ep ~from_host:client_name seq ))
        (Message.children_named call "sequence")
  in
  (* Dynamic topology, callee side: before evaluating, check that this
     peer still serves every document the body touches — the owner for
     updates, owner-or-replica for reads. If ownership moved away, answer
     with a <forward> redirect instead of evaluating against data we no
     longer own; the caller re-resolves and retries (PROTOCOL.md,
     "Topology & forwarding"). Idempotent, so dedup replay is safe. *)
  let forward =
    match session.net.Network.catalog with
    | Some cat when Network.topo_active session.net ->
      let body = Lazy.force body in
      let updates = Ast.contains_update body in
      let self = Peer.name session.self in
      List.find_map
        (fun doc ->
          match Xd_topo.Catalog.resolve cat doc with
          | Some e
            when (if updates then e.Xd_topo.Catalog.owner <> self
                  else not (Xd_topo.Catalog.serves cat ~peer:self ~doc)) ->
            Some (doc, e.Xd_topo.Catalog.owner)
          | _ -> None)
        (body_doc_names body)
    | _ -> None
  in
  match forward with
  | Some (doc, owner) ->
    let epoch =
      match session.net.Network.catalog with
      | Some cat -> Xd_topo.Catalog.epoch cat
      | None -> 0
    in
    let sp = span_note session ~cat:"topo" "forward" in
    Trace.add_attr sp "doc" (Trace.S doc);
    Trace.add_attr sp "owner" (Trace.S owner);
    Trace.add_attr sp "epoch" (Trace.I epoch);
    Trace.finish session.tracer sp;
    Message.forward_body ~doc ~owner ~epoch
  | None ->
  (* while a txn-tagged request evaluates, the transaction is in scope so
     nested outgoing calls propagate the id; its participants (this peer's
     own fan-out) are reported back in the response *)
  let tcoord =
    Option.map
      (fun t -> { txn_id = t; participants = []; epoch = None })
      txn_attr
  in
  let staged = ref 0 in
  let result =
    accounted session Stats.Remote "evaluate" (fun () ->
        let body = Lazy.force body in
        let vars =
          List.fold_left
            (fun acc (v, value) -> Env.Smap.add v value acc)
            Env.Smap.empty args
        in
        let env =
          Env.create ~vars ~funcs
            ~resolve_doc:(fun env uri -> resolve_doc session env uri)
            ~execute_at:(fun env x ~host ~args ->
              execute_at session env x ~host ~args)
            ~builtins:(Xd_lang.Builtins.table ())
            ~static_base_uri:(Message.req_attr req "static-base-uri")
            ~default_collation:(Message.req_attr req "default-collation")
            ~current_datetime:(Message.req_attr req "current-dateTime")
            ~pul:(Xd_lang.Pul.create ())
            (Peer.store session.self)
        in
        let prev_txn = session.txn in
        Fun.protect
          ~finally:(fun () -> session.txn <- prev_txn)
          (fun () ->
            (match tcoord with
            | Some _ -> session.txn <- tcoord
            | None -> ());
            let v = Eval.eval env body in
            (match txn_attr with
            | None -> apply_updates session env
            | Some txn -> staged := stage_updates session env ~txn ~req_id);
            v))
  in
  (* response *)
  accounted session Stats.Serialize "response" (fun () ->
      let result_nodes =
        List.filter_map
          (function Value.N n -> Some n | Value.A _ -> None)
          result
      in
      (* The overflow fallback (a by-projection request whose path
         analysis produced nothing) answers with *by-fragment semantics*,
         and says so: a full-format by-projection message would not carry
         ancestors either, so labelling it by-projection only hid the
         demotion from the receiver (ROADMAP open item, resolved PR 3). *)
      let passing, frags =
        match passing with
        | Message.By_value -> (passing, [])
        | Message.By_fragment ->
          (passing, Message.plan_by_fragment ep ~host:client_name result_nodes)
        | Message.By_projection -> (
          match Message.find_child req "projection-paths" with
          | None ->
            ( Message.By_fragment,
              Message.plan_by_fragment ep ~host:client_name result_nodes )
          | Some p ->
            let path_of n = Xd_projection.Path.of_string (X.Node.string_value n) in
            let u_paths = List.map path_of (Message.children_named p "used-path") in
            let r_paths =
              List.map path_of (Message.children_named p "returned-path")
            in
            let used =
              result_nodes
              @ List.concat_map
                  (fun p -> Xd_projection.Path.eval p result_nodes)
                  u_paths
            in
            let returned =
              List.concat_map
                (fun p -> Xd_projection.Path.eval p result_nodes)
                r_paths
            in
            ( passing,
              Message.plan_by_projection ?schema:session.schema ep
                ~host:client_name ~used ~returned ))
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "<response";
      Message.buf_attr buf "passing" (Message.passing_to_string passing);
      (match txn_attr, tcoord with
      | Some t, Some c ->
        Message.buf_attr buf "txn" t;
        Message.buf_attr buf "staged" (string_of_int !staged);
        if c.participants <> [] then
          Message.buf_attr buf "txn-participants"
            (String.concat " " c.participants)
      | _ -> ());
      Buffer.add_char buf '>';
      Message.write_fragments buf frags;
      Message.write_sequence ep ~host:client_name ~passing ~frags buf result;
      Buffer.add_string buf "</response>";
      Buffer.contents buf)

(* Inside a transaction, a participant stages its PUL in the journal
   instead of applying it; the decision arrives later as a control
   message. Targets are validated now (same shipped-copy restriction as a
   direct apply), so prepare can only be voted on PULs that would apply
   cleanly. Returns the number of staged primitives — reported to the
   caller, which is how the coordinator learns who its participants
   are. *)
and stage_updates session (env : Env.t) ~txn ~req_id =
  match env.Env.pul with
  | None -> 0
  | Some pul when Xd_lang.Pul.is_empty pul -> 0
  | Some pul ->
    let pending = Xd_lang.Pul.list pul in
    validate_update_targets session pending;
    let n = List.length pending in
    if
      Journal.stage (journal session) ~txn
        ~req:(Option.value ~default:"" req_id)
        ~pul:(Xd_lang.Pul.to_xml pending)
    then begin
      Stats.incr ~by:n session.net.Network.stats Stats.txn_staged;
      let sp = span_note session ~cat:"txn" "stage" in
      Trace.add_attr sp "staged" (Trace.I n);
      Trace.finish session.tracer sp
    end;
    (* a deduplicated re-stage still reports its count: the answer must
       not depend on whether the first copy of the request got through *)
    n

(* ---------------- client side ------------------------------------------ *)

(* Shred a response at the client. A response that does not parse (e.g.
   truncated in flight) or is structurally broken raises a *retryable*
   transport fault; a parsed <env:Fault> re-raises as the typed
   exception it describes. Alongside the value, returns the transaction
   acknowledgement (staged count + transitive participants) when the
   response carries one. *)
and shred_response_node _session msg ~ep ~host resp :
    Value.t * (int * string list) option =
  let corrupt reason =
    raise
      (Message.Xrpc_fault { host; code = Message.Transport_corrupt; reason })
  in
  let tinfo =
    match Message.attr_of resp "txn" with
    | None -> None
    | Some _ ->
      let staged =
        match Message.attr_of resp "staged" with
        | None -> 0
        | Some s -> (
          match int_of_string_opt s with
          | Some n -> n
          | None -> corrupt (Printf.sprintf "bad staged count %S" s))
      in
      let nested =
        match Message.attr_of resp "txn-participants" with
        | None -> []
        | Some s ->
          List.filter (fun h -> h <> "") (String.split_on_char ' ' s)
      in
      Some (staged, nested)
  in
  Message.shred_fragments msg ep ~from_host:host
    (Message.find_child resp "fragments");
  let v =
    match Message.find_child resp "sequence" with
    | Some seq -> Message.shred_sequence msg ep ~from_host:host seq
    | None -> []
  in
  (v, tinfo)

(* Client-side response shredding. When the wire-shape analysis proved
   the call site's response atomic, the caller hands over its compiled
   decoder, which runs first: an exact prefix/suffix match around a flat
   <atomic> scan, agreeing with the generic parser on every byte string
   it accepts. Anything it did not predict — faults, forwards,
   corruption — misses the prefix and falls back (codec.bailouts). *)
and shred_response session ?decoder ~ep ~host response_text :
    Value.t * (int * string list) option =
  let stats = session.net.Network.stats in
  match decoder with
  | Some rd -> (
    match
      accounted session Stats.Shred "response" (fun () ->
          Codec.decode_response rd response_text)
    with
    | Some v ->
      Stats.incr stats Stats.codec_decodes;
      (v, None)
    | None ->
      Stats.incr stats Stats.codec_bailouts;
      shred_response_generic session ~ep ~host response_text)
  | None -> shred_response_generic session ~ep ~host response_text

and shred_response_generic session ~ep ~host response_text :
    Value.t * (int * string list) option =
  accounted session Stats.Shred "response" (fun () ->
      match
        read_reply session ~host ~what:"response"
          ~expect:[ "response"; "forward" ] response_text
      with
      | resp, msg when X.Node.name resp = "response" ->
        shred_response_node session msg ~ep ~host resp
      | f, _ ->
        (* a redirect: the callee no longer owns the data. A malformed
           one is a non-retryable protocol fault (typed, never a leaked
           exception); a well-formed one raises for the forwarding loop
           in execute_at. *)
        let doc, owner, epoch =
          try Message.parse_forward f
          with Message.Protocol_error m ->
            raise
              (Message.Xrpc_fault
                 { host; code = Message.Protocol_malformed; reason = m })
        in
        raise (Message.Xrpc_forward { doc; owner; epoch }))

(* Shred a <batch> response: one value per slot, in request order. A
   faulted slot raises after its predecessors shredded — exactly the
   state a sequential run would have reached when that call failed. *)
and shred_batch_response session ~ep ~host ~calls response_text :
    Value.t list =
  let corrupt reason =
    raise
      (Message.Xrpc_fault { host; code = Message.Transport_corrupt; reason })
  in
  accounted session Stats.Shred "batch response" (fun () ->
      let b, msg =
        read_reply session ~host ~what:"response" ~expect:[ "batch" ]
          response_text
      in
      let slots =
        List.filter (fun n -> X.Node.kind n = X.Node.Element) (X.Node.children b)
      in
      if List.length slots <> calls then
        corrupt
          (Printf.sprintf "batch answered %d of %d calls" (List.length slots)
             calls);
      List.fold_left
        (fun acc slot ->
          match X.Node.name slot with
          | "response" ->
            fst (shred_response_node session msg ~ep ~host slot) :: acc
          | "env:Fault" -> raise_fault session ~host slot
          | other -> corrupt ("unexpected batch slot <" ^ other ^ ">"))
        [] slots
      |> List.rev)

(* A body is safe to degrade to local evaluation when it provably reads
   only: no updating expression and no user-function call (a user
   function could hide an update; builtins cannot). *)
and degradable (x : Ast.execute_at) =
  (not (Ast.contains_update x.Ast.body))
  && Ast.fold
       (fun acc e ->
         acc
         &&
         match e.Ast.desc with
         | Ast.Fun_call (f, _) -> Xd_lang.Builtin_names.is_builtin f
         | _ -> true)
       true x.Ast.body

(* Graceful degradation: the peer's query endpoint is unreachable, but
   its document store is served by a dumb replica that data shipping can
   still reach (DESIGN.md). Fetch the documents and evaluate the
   read-only body here; relative URIs in the body meant the peer's own
   store, so they resolve as xrpc://host/uri. *)
and degrade session env (x : Ast.execute_at) ~host ~args =
  Stats.incr session.net.Network.stats Stats.fallbacks;
  traced session ~cat:"fallback" ("degrade " ^ host) @@ fun fsp ->
  Trace.add_attr fsp "host" (Trace.S host);
  let resolve e uri =
    match Xd_dgraph.Dgraph.split_xrpc_uri uri with
    | Some _ -> resolve_doc session e uri
    | None -> resolve_doc session e ("xrpc://" ^ host ^ "/" ^ uri)
  in
  Eval.local_execute_at { env with Env.resolve_doc = resolve } x ~host ~args

(* Put one message on the wire under a "network" span: wall-instant, but
   its simulated-clock interval captures the billed wire time. A request
   comes with [deadline_at], the offset its writer stamped the deadline
   at; a reply with none. The optional [hdr_span] is the span whose ids
   ride in an injected <trace> header — the attempt span, so the
   receiving peer's spans parent under that exact attempt. *)
and send_on_wire session ~dst ?hdr_span ?deadline_at text =
  let stats = session.net.Network.stats in
  traced session ~cat:"network" ("send " ^ dst) @@ fun nsp ->
  attr_delta_i nsp "bytes" (fun () -> Stats.total_bytes stats) @@ fun () ->
  (* Re-stamp a request's deadline with the budget remaining *now*,
     pre-subtracting this message's own wire time: the receiver's budget
     then equals the sender's budget at the moment of receipt, so
     budgets are strictly monotone across hops. Fixed width, so the
     message length never changes (retries re-stamp the same bytes). *)
  let text =
    match (deadline_at, deadline_now session) with
    | Some at, Some d ->
      Message.restamp_deadline text ~at
        (d -. sim_now session -. Network.wire_s session.net (String.length text))
    | _ -> text
  in
  (* a request's deadline and a fault reply's retry-after are billed but
     invisible to the fault schedule *)
  let hidden =
    match deadline_at with
    | Some at -> [ Message.deadline_range at ]
    | None -> Option.to_list (Message.retry_after_range text)
  in
  let r =
    match (session.tracer, hdr_span) with
    | Some _, Some (s : Trace.span) ->
      let header =
        Message.trace_header ~trace_id:s.Trace.trace_id
          ~span_id:s.Trace.span_id
      in
      let text, at, len = Message.inject_trace_header text ~header in
      (* the header goes in before every hidden range *)
      let hidden = List.map (fun (a, l) -> (a + len, l)) hidden in
      Network.send ~meta:(at, len) ~hidden session.net ~dst text
    | _ -> Network.send ~hidden session.net ~dst text
  in
  (match r with
  | Network.Dropped -> Trace.add_attr nsp "dropped" (Trace.B true)
  | Network.Delivered _ -> ());
  r

(* The transport: one round trip with [host] over the simulated wire.
   The request goes out, the server session answers it — twice when the
   fault layer duplicated the request: the second copy is answered from
   the dedup cache and its reply ignored — and the reply travels back.
   None when either leg was lost. The server session is resolved at
   partial application, before the first send, so its nesting-depth
   check fires before any byte is billed. *)
and exchange session ~host =
  let srv = server_session session host in
  let self_name = Peer.name session.self in
  fun ?hdr_span (req : Message.outgoing) ->
    match
      send_on_wire session ~dst:host ?hdr_span
        ?deadline_at:req.Message.deadline_at req.Message.text
    with
    | Network.Dropped -> None
    | Network.Delivered { text; duplicated } -> (
      let reply = handle_request srv ~client_name:self_name text in
      if duplicated then
        ignore (handle_request srv ~client_name:self_name text);
      record session (`Response reply);
      match send_on_wire session ~dst:self_name reply with
      | Network.Dropped -> None
      | Network.Delivered { text; duplicated = _ } -> Some text)

(* One data call to [host]: request build, then its round trips under the
   call policy. [Ok] of the shredded value or a <forward> redirect, or
   [Error (attempts, last failure)] once retryable failures exhausted the
   attempts or the retry budget (non-retryable faults raise at once). *)
and call_host session env (x : Ast.execute_at) ~host ~args =
  let stats = session.net.Network.stats in
  traced session ~cat:"call" ("call " ^ host) @@ fun call_sp ->
  Trace.add_attr call_sp "host" (Trace.S host);
  (* the d-graph vertex (execute-at body id) this call materializes —
     the join key between Cost's per-vertex estimates and the profile *)
  Trace.add_attr call_sp "vertex" (Trace.I x.Ast.body.Ast.id);
  Stats.incr_call ~peer:host stats;
  let funcs = Env.func_list env in
  let ep = call_endpoint session in
  let req_id =
    (* only on a faulty wire: fault-free traffic stays byte-identical *)
    if Network.faulty session.net then begin
      session.next_req <- session.next_req + 1;
      Some (Printf.sprintf "%s:%d" (Peer.name session.self) session.next_req)
    end
    else None
  in
  let txn = Option.map (fun c -> c.txn_id) session.txn in
  let epoch =
    (* only under dynamic topology: the catalog version this call was
       routed with *)
    match session.net.Network.catalog with
    | Some cat when Network.topo_active session.net ->
      Some (Xd_topo.Catalog.epoch cat)
    | _ -> None
  in
  let req =
    accounted session Stats.Serialize "request" (fun () ->
        Message.write_request (request_writer session x) ep ~host
          ?schema:session.schema ?deadline:(remaining_budget session)
          { Message.args; funcs = module_for session ~host funcs; req_id; txn; epoch })
  in
  record session (`Request req.Message.text);
  (* a txn-tagged response carries txn/staged, which no compiled decoder
     matches: only calls outside a transaction take one *)
  let decoder =
    match txn with
    | None ->
      Option.bind session.codec (fun c -> Codec.find_resp c x.Ast.body.Ast.id)
    | Some _ -> None
  in
  let send = exchange session ~host in
  (* Jitter key: (request id, destination host) when there is an id
     (faulty wire — the only place retries can happen), else the host.
     The host must be part of the key: the same logical request can be
     re-driven at a different peer after a forward or failover, and
     keying on the id alone would replay the identical jitter fractions
     at the new hop instead of re-randomizing them per (id, hop). *)
  let key = match req_id with Some id -> id ^ "@" ^ host | None -> host in
  with_retries session ~key
    ~expired:(fun n ->
      raise
        (Message.Xrpc_fault
           {
             host;
             code = Message.Deadline_exceeded;
             reason =
               Printf.sprintf "deadline budget exhausted before attempt %d" n;
           }))
    (fun asp -> send ?hdr_span:asp req)
    (fun asp reply ->
      match shred_response session ?decoder ~ep ~host reply with
      | v, tinfo ->
        (* collect transaction participants: the callee (if it staged
           anything) plus whatever its own fan-out staged *)
        (match (session.txn, tinfo) with
        | Some c, Some (staged, nested) ->
          let addp h =
            if h <> "" && not (List.mem h c.participants) then
              c.participants <- c.participants @ [ h ]
          in
          if staged > 0 then addp host;
          List.iter addp nested
        | _ -> ());
        `Value v
      | exception Message.Xrpc_forward { doc; owner; epoch } ->
        Trace.add_attr asp "forwarded" (Trace.B true);
        `Forward (doc, owner, epoch))

(* A live replacement peer for a call whose owner is down: some live,
   not-yet-tried peer that serves (owns or replicates) *every* document
   the body touches. None when any touched document is uncatalogued, the
   body touches no documents, or no such peer remains. *)
and failover_target session (x : Ast.execute_at) ~visited down_host =
  match session.net.Network.catalog with
  | Some cat when Network.topo_active session.net -> (
    let docs = body_doc_names x.Ast.body in
    let entries = List.filter_map (Xd_topo.Catalog.resolve cat) docs in
    if entries = [] || List.length entries < List.length docs then None
    else
      let serving (e : Xd_topo.Catalog.entry) = e.owner :: e.replicas in
      let candidates =
        List.fold_left
          (fun acc e -> List.filter (fun p -> List.mem p (serving e)) acc)
          (serving (List.hd entries))
          (List.tl entries)
      in
      let dead p =
        p = down_host || p = Peer.name session.self || List.mem p visited
        || not (Xd_topo.Catalog.is_up cat p)
      in
      List.sort_uniq compare candidates
      |> List.find_opt (fun p -> not (dead p)))
  | _ -> None

and execute_at session env (x : Ast.execute_at) ~host ~args =
  if host = "" || host = Peer.name session.self then
    (* local execution: plain evaluation, full fidelity *)
    Eval.local_execute_at env x ~host ~args
  else begin
    let stats = session.net.Network.stats in
    let catalog = session.net.Network.catalog in
    let topo = Network.topo_active session.net in
    (* Runtime host resolution: a *computed* host is checked against the
       catalog at call time — when every document the body touches has
       one catalogued owner, the call is routed there, whatever the host
       expression evaluated to. Literal hosts route as written (the
       verifier vouched for them statically). *)
    let host =
      match catalog with
      | Some cat
        when topo
             && not
                  (match x.Ast.host.Ast.desc with
                  | Ast.Literal (Ast.A_string _) -> true
                  | _ -> false) -> (
        match catalog_owner cat (body_doc_names x.Ast.body) with
        | Some owner ->
          Stats.incr stats Stats.topo_resolutions;
          if owner <> host then begin
            let sp = span_note session ~cat:"topo" "resolve" in
            Trace.add_attr sp "computed" (Trace.S host);
            Trace.add_attr sp "owner" (Trace.S owner);
            Trace.finish session.tracer sp
          end;
          owner
        | None -> host)
      | _ -> host
    in
    (* The forwarding/failover loop: follow <forward> redirects (bounded
       hops, loop detection via the visited set), re-resolving each one
       against the catalog; when a peer stays down, fail over to a live
       replica for read-only bodies, else degrade/raise exactly as the
       static build would. *)
    (* Per-peer circuit breaker (overload model only). An open breaker
       sheds the call locally — it never touches the wire — and the shed
       call falls through the same ladder a down peer uses: replica
       failover, local degradation, or a typed overload fault. Half-open
       breakers let one deterministic probe through. *)
    let breaker_verdict host =
      match session.net.Network.overload with
      | None -> `Proceed
      | Some ov -> (
        match
          Overload.breaker_check ov ~peer:host ~now:(sim_now session)
        with
        | Overload.Proceed -> `Proceed
        | Overload.Probe ->
          Stats.incr stats Stats.breaker_probes;
          `Proceed
        | Overload.Shed { until } ->
          Stats.incr stats Stats.breaker_shed;
          `Shed until)
    in
    let breaker_failure host =
      match session.net.Network.overload with
      | None -> ()
      | Some ov ->
        let before = Overload.breaker_opens ov in
        Overload.breaker_failure ov ~peer:host ~now:(sim_now session);
        if Overload.breaker_opens ov > before then
          Stats.incr stats Stats.breaker_opens
    in
    (* A ladder event. It is noted after the call span has closed, so it
       names the vertex whose call caused it — the profile charges it
       there, not to client-local work. *)
    let note ~cat name attrs =
      let sp = span_note session ~cat name in
      List.iter (fun (k, v) -> Trace.add_attr sp k v) attrs;
      Trace.add_attr sp "vertex" (Trace.I x.Ast.body.Ast.id);
      Trace.finish session.tracer sp
    in
    let rec drive ~hops ~visited host =
      match breaker_verdict host with
      | `Shed until ->
        note ~cat:"overload" "breaker shed" [ ("host", Trace.S host) ];
        fall_back ~hops ~visited host (fun () ->
            raise
              (Message.Xrpc_fault
                 {
                   host;
                   code = Message.Server_overloaded;
                   reason =
                     Printf.sprintf "circuit breaker open for %s until t=%.3fs"
                       host until;
                 }))
      | `Proceed -> (
      match call_host session env x ~host ~args with
      | Ok (`Value v) ->
        Stats.set_peer_up ~peer:host stats true;
        (match session.net.Network.overload with
        | Some ov -> Overload.breaker_success ov ~peer:host
        | None -> ());
        v
      | Ok (`Forward (doc, fwd_owner, fwd_epoch)) ->
        Stats.incr stats Stats.forwarded;
        note ~cat:"topo" "forward"
          [
            ("from", Trace.S host);
            ("doc", Trace.S doc);
            ("owner", Trace.S fwd_owner);
            ("epoch", Trace.I fwd_epoch);
          ];
        (* re-resolve against our catalog; the redirect's claimed owner
           is the fallback when the document is not (or no longer)
           catalogued here *)
        let owner =
          match catalog with
          | Some cat ->
            Option.value ~default:fwd_owner (Xd_topo.Catalog.owner_of cat doc)
          | None -> fwd_owner
        in
        let unroutable reason =
          raise
            (Message.Xrpc_fault
               { host; code = Message.Topo_unroutable; reason })
        in
        if hops <= 0 then
          unroutable
            (Printf.sprintf
               "forward hop limit (%d) exhausted chasing %s" max_forward_hops
               doc)
        else if List.mem owner (host :: visited) then
          unroutable
            (Printf.sprintf "forward loop: %s already answered for %s" owner
               doc)
        else drive ~hops:(hops - 1) ~visited:(host :: visited) owner
      | Error (attempts, last) ->
        Stats.set_peer_up ~peer:host stats false;
        breaker_failure host;
        (match catalog with
        | Some cat -> Xd_topo.Catalog.mark_down cat host
        | None -> ());
        (* out of attempts on retryable failures only — non-retryable
           faults raised inside call_host *)
        fall_back ~hops ~visited host (fun () ->
            raise (failure_exn ~host attempts last)))
    (* The fall-back ladder for a peer that cannot take the call — shed
       by its breaker, or down: fail over to a live replica for a
       read-only body, else degrade, else [fail ()] raises the typed
       fault of the rung that sent us here. *)
    and fall_back ~hops ~visited host fail =
      match failover_target session x ~visited host with
      | Some replica when degradable x ->
        Stats.incr stats Stats.topo_failovers;
        note ~cat:"topo" "failover"
          [ ("down", Trace.S host); ("replica", Trace.S replica) ];
        drive ~hops ~visited:(host :: visited) replica
      | _ -> if degradable x then degrade session env x ~host ~args else fail ()
    in
    drive ~hops:max_forward_hops ~visited:[] host
  end

(* ---------------- dependency-aware scheduler --------------------------- *)

(* One coalesced round trip: every member's <request> body rides in a
   single <batch> envelope to [host], answered slot-by-slot in one
   response envelope (PROTOCOL.md, "Batched calls"). Only reachable on a
   fault-free wire, so there are no request-ids, retries or timeouts. *)
and batch_call session env ~host
    (items : (Ast.execute_at * (Ast.var * Value.t) list) list) : Value.t list
    =
  let stats = session.net.Network.stats in
  let n = List.length items in
  traced session ~cat:"call" (Printf.sprintf "batch %s (%d calls)" host n)
  @@ fun bsp ->
  Trace.add_attr bsp "host" (Trace.S host);
  Trace.add_attr bsp "calls" (Trace.I n);
  (* a batch materializes several vertices in one envelope; its shared
     costs are attributed to the first member's vertex, and the full
     membership rides along for the profile's benefit *)
  (match items with
  | (x, _) :: _ -> Trace.add_attr bsp "vertex" (Trace.I x.Ast.body.Ast.id)
  | [] -> ());
  Trace.add_attr bsp "vertices"
    (Trace.S
       (String.concat ","
          (List.map
             (fun ((x : Ast.execute_at), _) -> string_of_int x.Ast.body.Ast.id)
             items)));
  let funcs = Env.func_list env in
  let ep = call_endpoint session in
  let txn = Option.map (fun c -> c.txn_id) session.txn in
  List.iter (fun _ -> Stats.incr_call ~peer:host stats) items;
  let req =
    accounted session Stats.Serialize "batch request" (fun () ->
        Message.write_batch ~caller:(Peer.name session.self) ep ~host
          ?schema:session.schema ?deadline:(remaining_budget session)
          (List.map
             (fun (x, args) ->
               ( request_writer session x,
                 {
                   Message.args;
                   funcs = module_for session ~host funcs;
                   req_id = None;
                   txn;
                   epoch = None;
                 } ))
             items))
  in
  Stats.incr stats Stats.batch_envelopes;
  Stats.incr ~by:n stats Stats.batch_calls;
  record session (`Request req.Message.text);
  match exchange session ~host ?hdr_span:bsp req with
  | Some reply -> shred_batch_response session ~ep ~host ~calls:n reply
  | None ->
    (* unreachable: batches only form on a fault-free wire *)
    raise (Message.Xrpc_timeout { host; attempts = 1 })

(* Execute one overlap group. Members are provably pure and pairwise
   non-interfering (the effect analysis only groups read-only calls), so
   they may run in any interleaving; the simulated clock bills the group
   by its longest member (critical path) instead of the sum. On a faulty
   wire members still travel as individual messages in sequential order —
   the wire stays byte-identical to the sequential run under any fault
   schedule — and only the clock overlaps; on a fault-free wire,
   same-peer members additionally coalesce into one <batch> envelope per
   peer. *)
and run_group session (units : (Env.t * Ast.expr) list) : Value.t list =
  let stats = session.net.Network.stats in
  let n = List.length units in
  traced session ~cat:"sched" (Printf.sprintf "overlap (%d calls)" n)
  @@ fun gsp ->
  Trace.add_attr gsp "calls" (Trace.I n);
  let t0 = sim_now session in
  let deltas = ref [] in
  let maxd () = List.fold_left Float.max 0. !deltas in
  (* each wire unit restarts the clock at the group's start; the group
     finishes when its longest unit does *)
  let unit f =
    Stats.set stats Stats.network_s t0;
    match f () with
    | v ->
      deltas := (sim_now session -. t0) :: !deltas;
      v
    | exception e ->
      (* settle the clock before the failure propagates: everything that
         ran (including the failed member) overlapped *)
      deltas := (sim_now session -. t0) :: !deltas;
      Stats.set stats Stats.network_s (t0 +. maxd ());
      raise e
  in
  let finish vs =
    let sum = List.fold_left ( +. ) 0. !deltas and m = maxd () in
    Stats.set stats Stats.network_s (t0 +. m);
    Stats.incr stats Stats.sched_groups;
    Stats.incr ~by:n stats Stats.sched_overlapped;
    Stats.add stats Stats.sched_saved_s (sum -. m);
    vs
  in
  if
    Network.faulty session.net
    || Network.topo_active session.net
    || Network.overload_active session.net
  then
    (* Sequential wire units (still overlapped on the clock): the retry
       machinery needs each call to own its round trip, under dynamic
       topology each call must be free to chase forwards and fail over on
       its own, and under admission control each call must own its
       retry-after/backoff loop when shed — a <batch> envelope can do
       none of these. *)
    finish (List.map (fun (env, e) -> unit (fun () -> Eval.eval env e)) units)
  else begin
    (* pre-evaluate hosts and arguments in sequential order, then bucket
       the remote calls by destination peer *)
    let prepared =
      List.map
        (fun (env, e) ->
          match e.Ast.desc with
          | Ast.Execute_at x ->
            let host = Value.string_value (Eval.eval env x.Ast.host) in
            let args =
              List.map (fun (v, pe) -> (v, Eval.eval env pe)) x.Ast.params
            in
            if host = "" || host = Peer.name session.self then
              `Local (env, x, host, args)
            else `Remote (env, x, host, args)
          | _ -> `Plain (env, e))
        units
    in
    let results = Array.make n [] in
    let order = ref [] and byhost = Hashtbl.create 4 in
    List.iteri
      (fun i u ->
        match u with
        | `Remote (env, x, host, args) -> (
          match Hashtbl.find_opt byhost host with
          | Some l -> l := (i, env, x, args) :: !l
          | None ->
            Hashtbl.add byhost host (ref [ (i, env, x, args) ]);
            order := host :: !order)
        | `Local _ | `Plain _ -> ())
      prepared;
    List.iter
      (fun host ->
        match List.rev !(Hashtbl.find byhost host) with
        | [ (i, env, x, args) ] ->
          (* a lone call to this peer coalesces nothing: plain round trip *)
          results.(i) <- unit (fun () -> execute_at session env x ~host ~args)
        | (_, env0, _, _) :: _ as items ->
          let vs =
            unit (fun () ->
                batch_call session env0 ~host
                  (List.map (fun (_, _, x, args) -> (x, args)) items))
          in
          List.iter2 (fun (i, _, _, _) v -> results.(i) <- v) items vs
        | [] -> ())
      (List.rev !order);
    List.iteri
      (fun i u ->
        match u with
        | `Local (env, x, host, args) ->
          results.(i) <- unit (fun () -> execute_at session env x ~host ~args)
        | `Plain (env, e) -> results.(i) <- unit (fun () -> Eval.eval env e)
        | `Remote _ -> ())
      prepared;
    finish (Array.to_list results)
  end

(* The Env.schedule hook: fires at the Seq/Let/For vertices named as
   group anchors, replacing sequential evaluation of the member calls
   with an overlap group. Any shape mismatch — the expression under this
   vertex does not carry the expected member ids, e.g. a schedule derived
   from a different query — falls back to plain sequential evaluation via
   [None]. *)
and run_scheduled session env (e : Ast.expr) : Value.t option =
  match Hashtbl.find_opt session.sched e.Ast.id with
  | None -> None
  | Some groups -> (
    match e.Ast.desc with
    | Ast.Seq es -> sched_seq session env groups es
    | Ast.Let _ -> (
      match groups with
      | [ members ] -> sched_let session env members e
      | _ -> None)
    | Ast.For (v, src, body) -> (
      match groups with
      | [ [ m ] ] when m = body.Ast.id -> sched_for session env v src body
      | _ -> None)
    | _ -> None)

(* A Seq anchor: each group is a run of consecutive children. Matched
   runs execute as overlap groups; everything else (and any group that no
   longer matches) evaluates sequentially in place. *)
and sched_seq session env groups es =
  let rec split_at k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> ([], [])
      | x :: tl ->
        let a, b = split_at (k - 1) tl in
        (x :: a, b)
  in
  let rec prefix ms l =
    match (ms, l) with
    | [], _ -> true
    | m :: ms', (x : Ast.expr) :: l' -> m = x.Ast.id && prefix ms' l'
    | _ :: _, [] -> false
  in
  let rec go acc gs (cs : Ast.expr list) =
    match cs with
    | [] -> List.rev acc
    | c :: tl -> (
      match List.find_opt (fun ms -> prefix ms cs) gs with
      | Some members ->
        let run, rest = split_at (List.length members) cs in
        let vs = run_group session (List.map (fun m -> (env, m)) run) in
        go (List.rev_append vs acc) (List.filter (fun g -> g != members) gs)
          rest
      | None -> go (Eval.eval env c :: acc) gs tl)
  in
  Some (List.concat (go [] groups es))

(* A Let-chain anchor: the member ids name the bound values along the
   spine, whose continuation then evaluates under all the bindings. *)
and sched_let session env members e =
  let rec collect acc remaining (cur : Ast.expr) =
    match (remaining, cur.Ast.desc) with
    | [], _ -> Some (List.rev acc, cur)
    | m :: ms, Ast.Let (v, value, rest) when value.Ast.id = m ->
      collect ((v, value) :: acc) ms rest
    | _ -> None
  in
  match collect [] members e with
  | None -> None
  | Some (binds, k) ->
    let vs =
      run_group session (List.map (fun (_, value) -> (env, value)) binds)
    in
    let env' =
      List.fold_left2
        (fun env (v, _) value -> Env.bind env v value)
        env binds vs
    in
    Some (Eval.eval env' k)

(* A For anchor whose body is a pure call: every iteration issues an
   independent member — per-iteration fan-out. *)
and sched_for session env v src body =
  let seq = Eval.eval env src in
  match seq with
  | [] | [ _ ] ->
    (* nothing to overlap *)
    Some
      (List.concat_map
         (fun item -> Eval.eval (Env.bind env v [ item ]) body)
         seq)
  | _ ->
    let units = List.map (fun item -> (Env.bind env v [ item ], body)) seq in
    Some (List.concat (run_group session units))

(* Refuse updates whose targets live in documents this peer obtained by
   shipping (data-shipped fetches or shredded message fragments):
   updating a copy would silently diverge from the source peer. This is
   the runtime half of the paper's Section IX restriction, enforced both
   on direct application and on transactional staging. *)
and validate_update_targets session pending =
  let fetched_dids =
    Hashtbl.fold (fun _ d acc -> d.X.Doc.did :: acc) session.fetched []
  in
  List.iter
    (fun p ->
      let d = (Xd_lang.Pul.target_of p).X.Node.doc in
      if
        List.mem d.X.Doc.did fetched_dids
        || Hashtbl.mem session.ep.Message.foreign_docs d.X.Doc.did
      then
        Env.dynamic_error
          "update at %s targets a shipped copy of a remote document; \
re-run under a function-shipping strategy so the update executes at its \
source peer"
          (Peer.name session.self))
    pending

and apply_updates session (env : Env.t) =
  match env.Env.pul with
  | None -> ()
  | Some pul when Xd_lang.Pul.is_empty pul -> ()
  | Some pul ->
    let pending = Xd_lang.Pul.list pul in
    validate_update_targets session pending;
    ignore (Xd_lang.Update.apply [ Peer.store session.self ] pending)

(* ---------------- coordinator (2PC driver) ----------------------------- *)

(* Read a control-message reply: an ack, a retryable condition, or a
   fatal typed exception. *)
let parse_txn_response session ~host text =
  accounted session Stats.Shred "ack" (fun () ->
      match
        let ack, _ =
          read_reply session ~host ~what:"ack" ~expect:[ "txn-ack" ] text
        in
        snd (Message.parse_txn_ack ack)
      with
      | a -> `Ack a
      | exception Message.Xrpc_fault { code; reason; _ }
        when Message.retryable code ->
        `Retry (code, reason)
      | exception (Message.Xrpc_fault _ as e) -> `Fatal e
      | exception Message.Protocol_error m ->
        `Retry (Message.Transport_corrupt, m))

(* One 2PC control exchange with [host], under the call policy of a data
   call. Control messages are idempotent, so they carry no request-id and
   never consult the dedup cache: a duplicated commit simply re-acks. *)
let txn_rpc session ~host ?epoch action txn : (Message.txn_ack, exn) result =
  let act = Message.txn_action_to_string action in
  traced session ~cat:"txn.rpc" (act ^ " " ^ host) @@ fun csp ->
  Trace.add_attr csp "txn" (Trace.S txn);
  Trace.add_attr csp "host" (Trace.S host);
  (* 2PC control consumes deadline budget like any other hop: the value
     here is a placeholder, re-stamped with the remaining budget at each
     send *)
  let deadline = remaining_budget session in
  let req =
    accounted session Stats.Serialize "control" (fun () ->
        Message.write_txn_control ?epoch ?deadline ~action ~txn ())
  in
  record session (`Request req.Message.text);
  let send = exchange session ~host in
  match
    with_retries session ~key:(txn ^ "/" ^ act ^ "@" ^ host)
      ~expired:(fun n ->
        Error
          (Message.Xrpc_fault
             {
               host;
               code = Message.Deadline_exceeded;
               reason =
                 Printf.sprintf
                   "deadline budget exhausted before 2PC %s attempt %d" act n;
             }))
      (fun asp -> send ?hdr_span:asp req)
      (fun _ reply ->
        (* a fatal fault is returned, not raised: an exception through
           the attempt span would mark the span as failed *)
        match parse_txn_response session ~host reply with
        | `Ack a -> Ok a
        | `Fatal e -> Error e
        | `Retry (code, reason) ->
          raise (Message.Xrpc_fault { host; code; reason }))
  with
  | Ok r -> r
  | Error (attempts, last) -> Error (failure_exn ~host attempts last)

(* Apply this peer's own staged PULs for [txn], if any: the coordinator
   is its own participant. *)
let commit_local session txn =
  let j = journal session in
  match Journal.commit j ~txn with
  | `Apply puls ->
    ignore (Xd_lang.Update.apply_staged (Peer.store session.self) puls);
    Journal.committed j ~txn
  | `Already | `Unknown -> ()

(* Send [action] to the participants in order, stopping at the first
   whose reply is not the [expect]ed ack: its failure — [reason] for an
   unexpected ack — or None when every participant acked as expected. *)
let first_failure session ?epoch action txn ~expect ~reason participants =
  List.find_map
    (fun host ->
      match txn_rpc session ~host ?epoch action txn with
      | Ok a when a = expect -> None
      | Ok _ ->
        Some (Message.Xrpc_fault { host; code = Message.Txn_aborted; reason })
      | Error e -> Some e)
    participants

(* Send [action] to every participant; true iff all of them acked. *)
let broadcast session action txn participants =
  List.map (fun host -> txn_rpc session ~host action txn) participants
  |> List.for_all Result.is_ok

(* Drive 2PC to completion. With no remote participants the transaction
   never left this peer: apply the local PUL directly — the single-peer
   fast path costs zero extra messages.

   Otherwise: journal the outline, stage + prepare our own PUL (the
   coordinator is its own participant, which is what lets recovery finish
   the local half after a coordinator restart), collect prepare votes,
   then either journal the commit decision and propagate it, or abort
   with nothing journaled but the (optional) resolution marker — presumed
   abort. A commit decision that could not reach every participant raises
   the propagation failure, and {!recover} re-drives it from the journal:
   the decision, once journaled, stands. *)
let commit_txn session (env : Env.t) (c : coord) =
  let stats = session.net.Network.stats in
  let j = journal session in
  let txn = c.txn_id in
  if c.participants = [] then apply_updates session env
  else begin
    traced session ~cat:"txn" "2pc" @@ fun tsp ->
    Trace.add_attr tsp "txn" (Trace.S txn);
    Trace.add_attr tsp "participants" (Trace.I (List.length c.participants));
    Journal.append j (Journal.Begun { txn });
    List.iter
      (fun host -> Journal.append j (Journal.Participant { txn; host }))
      c.participants;
    let local_vote =
      match env.Env.pul with
      | Some pul when not (Xd_lang.Pul.is_empty pul) -> (
        let pending = Xd_lang.Pul.list pul in
        match validate_update_targets session pending with
        | () ->
          ignore (Journal.stage j ~txn ~req:"" ~pul:(Xd_lang.Pul.to_xml pending));
          ignore (Journal.prepare j ~txn);
          None
        | exception (Env.Dynamic_error _ as e) -> Some e)
      | _ -> None
    in
    let failure =
      match local_vote with
      | Some e -> Some e
      | None ->
        first_failure session ?epoch:c.epoch Message.Prepare txn
          ~expect:Message.Ack_prepared ~reason:"participant voted to abort"
          c.participants
    in
    match failure with
    | None -> (
      Journal.append j (Journal.Decided { txn });
      Stats.incr stats Stats.txn_commits;
      Trace.add_attr tsp "decision" (Trace.S "commit");
      commit_local session txn;
      match
        first_failure session Message.Commit txn ~expect:Message.Ack_committed
          ~reason:"participant could not confirm the commit" c.participants
      with
      | None -> Journal.append j (Journal.Resolved { txn })
      | Some e -> raise e)
    | Some e ->
      Stats.incr stats Stats.txn_aborts;
      Trace.add_attr tsp "decision" (Trace.S "abort");
      Journal.abort j ~txn;
      (* journaling the resolution of an abort is an optimization, not a
         requirement: presumed abort means an unresolved undecided txn is
         re-aborted harmlessly by recovery *)
      if broadcast session Message.Abort txn c.participants then
        Journal.append j (Journal.Resolved { txn });
      raise e
  end

(* ---------------- public API ------------------------------------------- *)

let env_for session ~funcs =
  let schedule =
    if Hashtbl.length session.sched = 0 then None
    else Some (fun env e -> run_scheduled session env e)
  in
  Env.create ?schedule ~funcs
    ~resolve_doc:(fun env uri -> resolve_doc session env uri)
    ~execute_at:(fun env x ~host ~args -> execute_at session env x ~host ~args)
    ~builtins:(Xd_lang.Builtins.table ())
    ~pul:(Xd_lang.Pul.create ())
    (Peer.store session.self)

let execute session (q : Ast.query) =
  let env = env_for session ~funcs:q.Ast.funcs in
  let v = Eval.eval env q.Ast.body in
  apply_updates session env;
  v

(* Execute one query as a distributed transaction: update-carrying calls
   stage at their peers, and the accumulated PUL (local + staged) commits
   atomically through 2PC when evaluation completes. *)
let execute_txn session (q : Ast.query) =
  let env = env_for session ~funcs:q.Ast.funcs in
  (* Under dynamic topology, pin the catalog epoch at transaction start:
     <prepare> carries it, so any ownership movement during evaluation
     makes every participant vote abort — updates refuse to commit across
     an epoch change. *)
  let epoch =
    match session.net.Network.catalog with
    | Some cat when Network.topo_active session.net ->
      Some (Xd_topo.Catalog.epoch cat)
    | _ -> None
  in
  let c = { txn_id = Journal.fresh_txn (journal session); participants = []; epoch } in
  session.txn <- Some c;
  Fun.protect
    ~finally:(fun () -> session.txn <- None)
    (fun () ->
      match Eval.eval env q.Ast.body with
      | v ->
        commit_txn session env c;
        v
      | exception e ->
        (* evaluation failed mid-flight: nothing is prepared anywhere, so
           presumed abort already guarantees no participant will apply;
           eagerly release staged state where the wire allows *)
        if c.participants <> [] then begin
          Stats.incr session.net.Network.stats Stats.txn_aborts;
          (* participants know this id now: journal it, so that a
             reopened journal never hands it out again *)
          Journal.abort (journal session) ~txn:c.txn_id;
          ignore (broadcast session Message.Abort c.txn_id c.participants)
        end;
        raise e)

(* Crash recovery, run by a fresh session for the same peer (same journal
   via the network registry): finish every transaction this coordinator
   began but never resolved. A journaled decision is re-driven to commit
   — including the coordinator's own staged half — and anything undecided
   is presumed aborted. Idempotent; safe to run at any time. *)
let recover session =
  let j = journal session in
  List.iter
    (fun (txn, participants, decision) ->
      let action =
        match decision with
        | `Commit ->
          commit_local session txn;
          Message.Commit
        | `Abort ->
          Journal.abort j ~txn;
          Message.Abort
      in
      if broadcast session action txn participants then
        Journal.append j (Journal.Resolved { txn }))
    (Journal.unresolved j)
