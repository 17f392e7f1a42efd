(* Bounded-capacity server model + caller-side circuit breakers, all on
   the simulated clock (PROTOCOL.md, "Deadlines & overload").

   Server side, per peer: [capacity] concurrent service slots and a
   bounded admission queue of [queue_cap] waiting requests. Admitted work
   occupies a slot for at least [service_s] simulated seconds (batch
   envelopes occupy one slot for [units * service_s]); an arrival that
   finds every slot busy queues behind the earlier admissions, its
   queueing delay charged to the simulated clock exactly like wire time.
   An arrival that finds the queue full is shed with a retryable
   xrpc:server.overloaded fault carrying the server's own estimate of
   when a slot frees (retry-after). An arrival whose remaining deadline
   budget cannot cover queue wait + service time is rejected outright
   with non-retryable xrpc:deadline.exceeded — performing work the
   caller will throw away is the definition of overload collapse.

   Caller side, per peer: a closed -> open -> half-open circuit breaker.
   [threshold] consecutive overload/timeout-class failures open the
   breaker; while open, calls are shed locally (read-only bodies fall
   through the degradation/failover ladder) without touching the wire;
   after a cooldown — doubling on every consecutive re-open, fully
   deterministic — a single probe call is let through, and its outcome
   closes or re-opens the breaker.

   Everything here is arithmetic over the simulated clock: same inputs,
   same admissions, same breaker transitions. The QCheck determinism
   harness pins that. *)

type config = {
  capacity : int; (* concurrent service slots per peer *)
  queue_cap : int; (* waiting admissions beyond the slots *)
  service_s : float; (* minimum service time per call unit *)
  threshold : int; (* consecutive failures that open a breaker *)
  cooldown_s : float; (* base open interval; doubles per re-open *)
}

type breaker_state = Closed | Open | Half_open

type breaker = {
  mutable state : breaker_state;
  mutable failures : int; (* consecutive, since the last success *)
  mutable open_until : float;
  mutable level : int; (* consecutive opens, for cooldown doubling *)
  mutable opens : int; (* cumulative, for stats *)
}

type peer_state = {
  mutable slots : (float * float) list;
      (* (end, arrival) of admitted, unfinished work, by end time *)
  breaker : breaker;
}

type t = { config : config; peers : (string, peer_state) Hashtbl.t }

let create ?(capacity = 4) ?(queue_cap = 8) ?(service_s = 0.001)
    ?(threshold = 3) ?(cooldown_s = 0.05) () =
  if capacity < 1 then invalid_arg "Overload.create: capacity < 1";
  if queue_cap < 0 then invalid_arg "Overload.create: queue_cap < 0";
  if service_s < 0. then invalid_arg "Overload.create: service_s < 0";
  if threshold < 1 then invalid_arg "Overload.create: threshold < 1";
  {
    config = { capacity; queue_cap; service_s; threshold; cooldown_s };
    peers = Hashtbl.create 8;
  }

let config t = t.config
let service_s t = t.config.service_s

let peer_state t peer =
  match Hashtbl.find_opt t.peers peer with
  | Some ps -> ps
  | None ->
    let ps =
      {
        slots = [];
        breaker =
          {
            state = Closed;
            failures = 0;
            open_until = 0.;
            level = 0;
            opens = 0;
          };
      }
    in
    Hashtbl.replace t.peers peer ps;
    ps

(* ------------------------------------------------------------------ *)
(* Admission.                                                          *)
(* ------------------------------------------------------------------ *)

type admission =
  | Admit of { start : float; finish : float; wait_s : float; depth : int }
      (* run from [start] (queue wait already included) to [finish] *)
  | Busy of { retry_after_s : float } (* queue full: shed, suggest a delay *)
  | Hopeless of { needed_s : float }
      (* the remaining budget cannot cover wait + service *)

(* Drop slots that have drained by [now], keeping the rest sorted. *)
let prune ps ~now =
  ps.slots <- List.sort compare (List.filter (fun (e, _) -> e > now) ps.slots)

let admit t ~peer ~now ?deadline ~units () =
  let units = Stdlib.max 1 units in
  let c = t.config in
  let ps = peer_state t peer in
  prune ps ~now;
  (* An arrival queues only behind work that arrived no later than it.
     An overlap group rewinds the simulated clock for each member, and a
     member that reached this peer later on that clock is not ahead of
     this one; a monotone clock never shows a later arrival. *)
  let ahead =
    List.filter_map (fun (e, a) -> if a <= now then Some e else None) ps.slots
  in
  let busy = List.length ahead in
  let start =
    if busy < c.capacity then now
    else
      (* every slot is taken: we start when enough earlier admissions
         drain that the in-flight count drops below capacity — the
         (busy - capacity)-th smallest end time (slots are sorted) *)
      List.nth ahead (busy - c.capacity)
  in
  let wait_s = start -. now in
  let service = float_of_int units *. c.service_s in
  let finish = start +. service in
  let depth = Stdlib.max 0 (busy - c.capacity) in
  match deadline with
  | Some d when d < wait_s +. service -> Hopeless { needed_s = wait_s +. service }
  | _ ->
    if depth >= c.queue_cap && busy >= c.capacity then
      let earliest = List.nth ahead 0 in
      Busy { retry_after_s = Float.max c.service_s (earliest -. now) }
    else begin
      ps.slots <- List.sort compare ((finish, now) :: ps.slots);
      Admit { start; finish; wait_s; depth }
    end

(* ------------------------------------------------------------------ *)
(* Circuit breakers.                                                   *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Proceed (* breaker closed: call normally *)
  | Probe (* half-open: this call is the probe *)
  | Shed of { until : float } (* open: do not touch the wire *)

let breaker_check t ~peer ~now =
  let b = (peer_state t peer).breaker in
  match b.state with
  | Closed -> Proceed
  | Half_open -> Probe
  | Open when now < b.open_until -> Shed { until = b.open_until }
  | Open ->
    b.state <- Half_open;
    Probe

(* Deterministic doubling probe schedule: the k-th consecutive open
   lasts cooldown * 2^(k-1). *)
let open_breaker ~cooldown_s b ~now =
  b.opens <- b.opens + 1;
  b.level <- b.level + 1;
  b.state <- Open;
  b.open_until <-
    now +. (cooldown_s *. (2. ** float_of_int (b.level - 1)))

let breaker_failure t ~peer ~now =
  let c = t.config in
  let b = (peer_state t peer).breaker in
  match b.state with
  | Half_open ->
    (* the probe failed: straight back to open, cooldown doubled *)
    b.failures <- b.failures + 1;
    open_breaker ~cooldown_s:c.cooldown_s b ~now
  | Open -> b.failures <- b.failures + 1
  | Closed ->
    b.failures <- b.failures + 1;
    if b.failures >= c.threshold then
      open_breaker ~cooldown_s:c.cooldown_s b ~now

let breaker_success t ~peer =
  let b = (peer_state t peer).breaker in
  b.state <- Closed;
  b.failures <- 0;
  b.level <- 0

let breaker_opens t =
  Hashtbl.fold (fun _ ps acc -> acc + ps.breaker.opens) t.peers 0

let breaker_state t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | None -> Closed
  | Some ps -> ps.breaker.state

let pp_breakers fmt t =
  let rows =
    Hashtbl.fold (fun peer ps acc -> (peer, ps.breaker) :: acc) t.peers []
    |> List.sort compare
  in
  List.iter
    (fun (peer, b) ->
      match b.state with
      | Closed ->
        Format.fprintf fmt "%s: closed (%d opens, %d consecutive failures)@."
          peer b.opens b.failures
      | Open ->
        Format.fprintf fmt "%s: open until %.3fs (%d opens)@." peer
          b.open_until b.opens
      | Half_open ->
        Format.fprintf fmt "%s: half-open (probing, %d opens)@." peer b.opens)
    rows
