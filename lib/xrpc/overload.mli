(** Bounded-capacity server model + caller-side circuit breakers on the
    simulated clock (PROTOCOL.md, "Deadlines & overload").

    Server side, per peer: [capacity] concurrent service slots and a
    bounded admission queue of [queue_cap] waiting requests; admitted
    work holds a slot for at least [service_s] simulated seconds per call
    unit, queueing delay is charged to the simulated clock, a full queue
    sheds with retryable [xrpc:server.overloaded] (+ retry-after), and a
    request whose remaining deadline budget cannot cover wait + service
    is rejected with non-retryable [xrpc:deadline.exceeded].

    Caller side, per peer: a closed → open → half-open breaker on
    consecutive overload/timeout-class failures, with a deterministic
    doubling probe schedule.

    Everything is arithmetic over the simulated clock: same inputs, same
    admissions, same transitions. *)

type config = private {
  capacity : int;  (** concurrent service slots per peer *)
  queue_cap : int;  (** waiting admissions beyond the slots *)
  service_s : float;  (** minimum service time per call unit *)
  threshold : int;  (** consecutive failures that open a breaker *)
  cooldown_s : float;  (** base open interval; doubles per re-open *)
}

type t

val create :
  ?capacity:int ->
  ?queue_cap:int ->
  ?service_s:float ->
  ?threshold:int ->
  ?cooldown_s:float ->
  unit ->
  t
(** Defaults: capacity 4, queue_cap 8, service_s 1ms, threshold 3,
    cooldown 50ms. Raises [Invalid_argument] on non-positive capacity /
    threshold or negative queue_cap / service_s. *)

val config : t -> config
val service_s : t -> float

(** {2 Admission} *)

type admission =
  | Admit of { start : float; finish : float; wait_s : float; depth : int }
      (** run from [start] (queue wait included) to [finish]; [depth] is
          how many admissions were queued ahead *)
  | Busy of { retry_after_s : float }
      (** queue full: shed, with the server's estimate of when a slot
          frees *)
  | Hopeless of { needed_s : float }
      (** the remaining deadline budget cannot cover wait + service *)

val admit :
  t -> peer:string -> now:float -> ?deadline:float -> units:int -> unit ->
  admission
(** One admission decision for an envelope of [units] calls (a batch
    occupies one slot for [units * service_s]), arriving at [now]. It
    queues only behind admissions that arrived no later than [now].
    Mutates the peer's slot list on [Admit]. *)

(** {2 Circuit breakers} *)

type breaker_state = Closed | Open | Half_open

type verdict =
  | Proceed  (** breaker closed: call normally *)
  | Probe  (** half-open: this call is the probe *)
  | Shed of { until : float }  (** open: do not touch the wire *)

val breaker_check : t -> peer:string -> now:float -> verdict
(** Consult (and advance: an expired open becomes half-open) the
    breaker before a call. *)

val breaker_success : t -> peer:string -> unit
(** Any successful exchange closes the breaker and resets its counters. *)

val breaker_failure : t -> peer:string -> now:float -> unit
(** An overload/timeout-class failure. The [threshold]-th consecutive
    one opens the breaker for [cooldown_s * 2^(k-1)] (k-th consecutive
    open); a failed half-open probe re-opens immediately with the next
    doubling. *)

val breaker_opens : t -> int
(** Cumulative breaker opens across all peers (for stats). *)

val breaker_state : t -> peer:string -> breaker_state

val pp_breakers : Format.formatter -> t -> unit
(** One line per peer, sorted by name — the [--show-breakers] output. *)
