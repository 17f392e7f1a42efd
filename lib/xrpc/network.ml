(* The simulated network: a registry of peers plus a cost model. Messages
   are real XML strings produced and parsed by the peers; only the wire is
   simulated, charging latency + bytes/bandwidth per message. Defaults
   model the paper's testbed (1 Gb/s Ethernet LAN).

   An optional fault layer decides the fate of every XRPC message —
   delivered, dropped, duplicated, truncated or delayed — from a seeded
   schedule (see Fault). With an empty spec the layer is bypassed
   entirely: accounting and wire bytes are identical to a fault-free
   build. Document fetches (data shipping) are never injected with
   faults; they model a dumb replica server that stays reachable when a
   peer's query endpoint crashes (DESIGN.md, "Graceful degradation"). *)

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
  mutable sent : int;
  mutable overload : Overload.t option;
}

let create ?(bandwidth_bytes_per_s = 1e9 /. 8.) ?(latency_s = 1e-4)
    ?(fault = Fault.none) ?journal_dir () =
  {
    peers = Hashtbl.create 8;
    bandwidth_bytes_per_s;
    latency_s;
    stats = Stats.create ();
    fault;
    journal_dir;
    journals = Hashtbl.create 8;
    catalog = None;
    churn = Xd_topo.Churn.empty;
    sent = 0;
    overload = None;
  }

let faulty t = Fault.enabled t.fault
let set_catalog t cat = t.catalog <- Some cat
let set_churn t churn = t.churn <- churn
let set_overload t ov = t.overload <- Some ov

(* The admission layer is in force only when explicitly installed
   (--peer-capacity & co.); without it no deadline/queue arithmetic runs
   and the wire stays byte-identical to the unprotected build. *)
let overload_active t = Option.is_some t.overload

(* Pure wire time of a message of [bytes] — what a send of it would charge
   the simulated clock. Used to pre-subtract a message's own transmission
   from the deadline budget it carries. *)
let wire_s t bytes =
  t.latency_s +. (float_of_int bytes /. t.bandwidth_bytes_per_s)

(* Dynamic topology is in force only for a non-trivial catalog: an absent
   or empty catalog leaves every session behavior (routing, epoch attrs,
   batching) untouched, so the wire stays byte-identical to the static
   build. *)
let topo_active t =
  match t.catalog with
  | Some cat -> not (Xd_topo.Catalog.trivial cat)
  | None -> false

(* The outage is over: subsequent messages are delivered faithfully. Used
   by recovery drivers (and tests) to model "the network came back". *)
let heal t = t.fault <- Fault.none

(* Each peer owns one journal, shared by every session that serves it and
   surviving sessions — which is what lets a fresh coordinator session
   recover transactions an earlier crashed execution left behind. Every
   appended record ticks the shared journal.records metric, which
   registers when the first journal opens, record or not. *)
let journal t peer =
  match Hashtbl.find_opt t.journals peer with
  | Some j -> j
  | None ->
    let j =
      match t.journal_dir with
      | Some dir -> Journal.open_file ~dir ~peer
      | None -> Journal.in_memory ~peer
    in
    Stats.incr ~by:0 t.stats Stats.journal_records;
    Journal.on_append j (fun _ -> Stats.incr t.stats Stats.journal_records);
    Hashtbl.replace t.journals peer j;
    j

let add_peer t peer = Hashtbl.replace t.peers (Peer.name peer) peer

let new_peer t name =
  let p = Peer.create name in
  add_peer t p;
  p

let find_peer t name =
  match Hashtbl.find_opt t.peers name with
  | Some p -> p
  | None -> Xd_lang.Env.dynamic_error "unknown peer %S" name

(* Account one message of [bytes] on the wire. *)
let transfer ?(kind = `Message) t bytes =
  (match kind with
  | `Message -> Stats.add_message t.stats ~bytes
  | `Document ->
    Stats.incr ~by:bytes t.stats Stats.document_bytes;
    Stats.incr t.stats Stats.documents);
  Stats.add t.stats Stats.network_s (wire_s t bytes)

type delivery = Delivered of { text : string; duplicated : bool } | Dropped

(* Put one XRPC message on the wire towards [dst]. The sender always pays
   for the transmission (the bytes left its interface even when the
   message is then lost); the fault layer decides what, if anything,
   arrives.

   [meta], when given, marks a telemetry substring of [text] occupying
   [len] bytes starting at offset [at] (the injected <trace> header).
   Telemetry is free: it is excluded from the billed byte count and from
   the fault layer's length-dependent decisions, and a truncation fault
   cuts the payload at the same payload offset it would have used had
   the header not been there. This keeps byte accounting and the seeded
   fault schedule identical with tracing on or off.

   [hidden], when given, lists further (at, len) substrings — the
   fixed-width deadline / retry-after attributes — that ARE billed (the
   budget is protocol payload) but are likewise invisible to the fault
   layer: same decisions, and truncation offsets mapped past them, as on
   a wire without deadlines. Ranges must be sorted and disjoint from
   each other and from [meta]. *)
let send ?meta ?(hidden = []) t ~dst text =
  (* Scripted membership churn fires on message counts, just before the
     triggering message is handled: an event scheduled at N affects how the
     N-th message is routed/answered. Deterministic by construction. *)
  t.sent <- t.sent + 1;
  (match t.catalog with
  | Some cat ->
    List.iter
      (fun _ev -> Stats.incr t.stats Stats.topo_churn_events)
      (Xd_topo.Churn.tick t.churn cat ~count:t.sent)
  | None -> ());
  let at, hlen = match meta with None -> (0, 0) | Some (a, l) -> (a, l) in
  let bytes = String.length text - hlen in
  let hidden_len = List.fold_left (fun acc (_, l) -> acc + l) 0 hidden in
  (* every range the fault layer must not see, ascending; [meta]'s is the
     only unbilled one *)
  let blind =
    List.sort compare (if hlen > 0 then (at, hlen) :: hidden else hidden)
  in
  transfer ~kind:`Message t bytes;
  if not (Fault.enabled t.fault) then Delivered { text; duplicated = false }
  else
    match Fault.decide t.fault ~dst ~len:(bytes - hidden_len) with
    | Fault.Pass -> Delivered { text; duplicated = false }
    | Fault.Drop_msg ->
      Stats.incr_faults ~kind:"drop" t.stats;
      Dropped
    | Fault.Duplicate ->
      Stats.incr_faults ~kind:"dup" t.stats;
      transfer ~kind:`Message t bytes;
      Delivered { text; duplicated = true }
    | Fault.Truncate_at n ->
      Stats.incr_faults ~kind:"truncate" t.stats;
      (* Cut at the fault layer's payload offset, mapped past every blind
         range in ascending order: a range before the cut rides along (or
         is lost) whole, one after it is untouched — the same payload
         bytes survive as on a wire without headers or deadlines. *)
      let cut =
        List.fold_left
          (fun c (a, l) -> if c <= a then c else c + l)
          n blind
      in
      Delivered { text = String.sub text 0 cut; duplicated = false }
    | Fault.Delay_by s ->
      Stats.incr_faults ~kind:"delay" t.stats;
      Stats.add t.stats Stats.network_s s;
      Delivered { text; duplicated = false }
    | Fault.Restart_peer ->
      Stats.incr_faults ~kind:"restart" t.stats;
      Journal.crash_restart (journal t dst);
      Dropped
