(** Hierarchical span tracing over dual clocks.

    A {!t} is a per-run tracer: spans record a wall-clock interval (real
    elapsed time) and a simulated-clock interval (the XRPC network
    clock), a category, the peer that executed them, and typed
    attributes. Completed spans land in a bounded ring buffer; the
    {!Sink} module renders the buffer as JSONL or Chrome [trace_event]
    JSON.

    Every operation accepts [span option] so call sites can thread an
    ambient span without branching on whether tracing is enabled:
    [None] makes every operation a no-op. *)

type attr = S of string | I of int | F of float | B of bool

type span = private {
  trace_id : string;
  span_id : string;
  parent_id : string option;
  name : string;
  cat : string;  (** span taxonomy category, e.g. ["xrpc.call"] *)
  peer : string;  (** logical host that executed the span *)
  start_wall : float;
  start_sim : float;
  mutable end_wall : float;
  mutable end_sim : float;
  mutable attrs : (string * attr) list;
}

type t

type parent =
  | Root  (** start a fresh trace *)
  | Child of span  (** nest under a local span *)
  | Remote of { trace_id : string; span_id : string }
      (** nest under a span on another peer, as carried by the [<trace>]
          envelope header *)

val create : ?cap:int -> ?sim:(unit -> float) -> unit -> t
(** A tracer whose ring buffer holds [cap] completed spans (default
    65536; older spans are dropped and counted in {!dropped}). [sim]
    reads the simulated clock (default: constantly [0.]). Ids are drawn
    from a deterministic per-tracer counter, so two runs of the same
    program produce identical ids. *)

val set_sim : t -> (unit -> float) -> unit
(** Re-point the simulated clock (e.g. once the network exists). *)

val now : unit -> float
(** The monotonic clock every wall-time reading in the system uses
    (spans, {!Xd_xrpc.Stats} buckets, executor wall time), in seconds
    since an arbitrary origin. Only differences are meaningful. *)

val start :
  t option -> parent:parent -> peer:string -> cat:string -> string ->
  span option
(** [start tr ~parent ~peer ~cat name] opens a span; [None] tracer (or
    [Child] of a foreign span) yields [None]. *)

val add_attr : span option -> string -> attr -> unit
val finish : t option -> span option -> unit

val with_span :
  t option -> parent:parent -> peer:string -> cat:string -> string ->
  (span option -> 'a) -> 'a
(** Run the body under a fresh span, finishing it on both normal return
    and exception (the exception is recorded as an [error] attribute and
    re-raised). *)

val ambient : span option -> parent
(** [Child s] when a span is at hand, [Root] otherwise. *)

val spans : t -> span list
(** Completed spans, oldest first. *)

val dropped : t -> int
val clear : t -> unit

val valid_id : string -> bool
(** 1–32 lowercase hex characters — the wire-format constraint on
    [<trace>] header ids. *)
