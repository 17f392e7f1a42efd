(** The simulated network: a registry of peers plus a cost model. Messages
    are real XML strings produced and parsed by the peers; only the wire
    is simulated, charging latency + bytes/bandwidth per message. Defaults
    model the paper's testbed (1 Gb/s LAN, 0.1 ms).

    An optional {!Fault} layer decides the fate of every XRPC message.
    With an empty spec it is bypassed entirely — wire traffic is
    byte-identical to a fault-free build. Document fetches (data
    shipping) are never fault-injected: they model a dumb replica server
    that stays reachable when a peer's query endpoint crashes. *)

type t = {
  peers : (string, Peer.t) Hashtbl.t;
  bandwidth_bytes_per_s : float;
  latency_s : float;
  stats : Stats.t;
  mutable fault : Fault.t;
  journal_dir : string option;
  journals : (string, Journal.t) Hashtbl.t;
  mutable catalog : Xd_topo.Catalog.t option;
  mutable churn : Xd_topo.Churn.t;
  mutable sent : int;  (** messages put on the wire; keys churn schedules *)
  mutable overload : Overload.t option;
      (** bounded-capacity admission model, when installed *)
}

val create :
  ?bandwidth_bytes_per_s:float -> ?latency_s:float -> ?fault:Fault.t ->
  ?journal_dir:string -> unit -> t
(** With [journal_dir], peer journals are file-backed at
    [<journal_dir>/<peer>.journal] and survive the process. *)

val faulty : t -> bool
(** Whether a non-empty fault schedule is installed. *)

val set_catalog : t -> Xd_topo.Catalog.t -> unit
(** Install the peer catalog (the authoritative replicated registry). *)

val set_churn : t -> Xd_topo.Churn.t -> unit
(** Install a scripted churn schedule; events fire on wire-message counts
    (see {!Xd_topo.Churn}) and mutate the installed catalog. *)

val topo_active : t -> bool
(** Dynamic topology is in force: a non-trivial catalog is installed.
    False for an absent or empty catalog — in that case every session
    behavior is byte-identical to the static build. *)

val set_overload : t -> Overload.t -> unit
(** Install the bounded-capacity admission model
    ([--peer-capacity]/[--queue-cap]/[--service-time]). *)

val overload_active : t -> bool
(** Whether the admission layer is installed. Without it no queue or
    breaker arithmetic runs and the wire stays byte-identical to the
    unprotected build. *)

val wire_s : t -> int -> float
(** Pure wire time of a message of that many bytes (latency +
    bytes/bandwidth) — what sending it will charge the simulated clock.
    Used to pre-subtract a message's own transmission from the deadline
    budget it carries. *)

val heal : t -> unit
(** Remove the fault layer: the outage is over. Crash-restarted peers keep
    their (replayed) journals; subsequent messages are all delivered. *)

val journal : t -> string -> Journal.t
(** The named peer's transaction journal (lazily created; file-backed when
    the network has a journal directory). *)

val add_peer : t -> Peer.t -> unit
val new_peer : t -> string -> Peer.t
val find_peer : t -> string -> Peer.t
val transfer : ?kind:[ `Message | `Document ] -> t -> int -> unit

type delivery = Delivered of { text : string; duplicated : bool } | Dropped

val send :
  ?meta:int * int -> ?hidden:(int * int) list -> t -> dst:string -> string ->
  delivery
(** Put one XRPC message on the wire towards peer [dst]. The sender
    always pays for the transmission; the fault layer decides what
    arrives: the full text, a truncated prefix, two copies
    ([duplicated]), or nothing ([Dropped] — the caller's timeout
    machinery takes over).

    [meta:(at, len)] marks a telemetry substring of the text (the
    injected [<trace>] header, [len] bytes at offset [at]). Telemetry
    rides for free: billed bytes, fault decisions and truncation offsets
    are computed as if it were absent, so tracing cannot perturb
    accounting or a seeded fault schedule.

    [hidden] lists further sorted disjoint ranges — a request's
    fixed-width deadline attribute, where its writer put it
    ({!Message.deadline_range}), or a fault reply's retry-after
    ({!Message.retry_after_range}) — that {e are} billed but are
    likewise invisible to the fault layer, so installing deadlines
    cannot perturb a seeded fault schedule either. *)
