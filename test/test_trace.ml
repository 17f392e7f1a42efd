(* Property tests for the distributed tracer (lib/obs + the session's
   span instrumentation), over the same random query generator as the
   end-to-end equivalence suite:

   - every traced run yields a well-formed span tree: one root, parents
     resolve within the buffer, no cycles, children nest inside their
     parent on the simulated clock;
   - tracing is observationally transparent: the result, the
     deterministic Stats counters and the seeded fault schedule are
     identical with tracing on and off;
   - leaf span durations reconcile with the Stats buckets: the summed
     wall time of serialize/shred leaf spans matches the corresponding
     gauge (spans wrap exactly the timed regions, so they can exceed
     them only by bookkeeping overhead). *)

module Ast = Xd_lang.Ast
module E = Xd_core.Executor
module S = Xd_core.Strategy
module T = Xd_obs.Trace
open Util

let make_net = Gen_queries.make_net
let arb_query = Gen_queries.arb_query

(* A fault mix that exercises retries, dedup replay and timeouts without
   making every query fail: drops force re-sends, dups hit the server
   cache. *)
let fault_spec = "drop@0.25#2;dup@0.15#1"

type outcome =
  | Value of string
  | Rpc_fault of string
  | Rpc_timeout of string
  | Other of string

let run ?(traced = false) ?fault_seed q =
  let fault =
    match fault_seed with
    | None -> Xd_xrpc.Fault.none
    | Some seed -> (
      match Xd_xrpc.Fault.parse fault_spec with
      | Ok spec -> Xd_xrpc.Fault.create ~seed spec
      | Error e -> failwith e)
  in
  let net, client = make_net ~fault () in
  let trace = if traced then Some (T.create ()) else None in
  let outcome =
    match E.run ?trace net ~client S.By_projection q with
    | r -> Value (Xd_lang.Value.serialize r.E.value)
    | exception Xd_xrpc.Message.Xrpc_fault { host; code; reason } ->
      Rpc_fault
        (Printf.sprintf "%s/%s/%s" host
           (Xd_xrpc.Message.fault_code_to_string code)
           reason)
    | exception Xd_xrpc.Message.Xrpc_timeout { host; attempts } ->
      Rpc_timeout (Printf.sprintf "%s/%d" host attempts)
    | exception e -> Other (Printexc.to_string e)
  in
  (outcome, net.Xd_xrpc.Network.stats, trace)

(* The deterministic slice of Stats: counts, bytes and simulated time.
   Wall-clock gauges (serialize/shred/remote) legitimately differ between
   runs and are covered by the reconciliation property instead. *)
let wire_stats st =
  let module St = Xd_xrpc.Stats in
  let c = St.count st in
  ( (c St.messages, c St.message_bytes),
    (c St.documents, c St.document_bytes),
    St.seconds st St.network_s,
    (c St.faults, c St.timeouts, c St.retries, c St.fallbacks),
    (c St.dedup_hits, c St.dedup_evictions),
    (c St.txn_staged, c St.txn_commits, c St.txn_aborts) )

(* ---- (a) well-formed span trees -------------------------------------- *)

let well_formed tr =
  let spans = T.spans tr in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.T.span_id s) spans;
  let unique_ids = Hashtbl.length by_id = List.length spans in
  let roots = List.filter (fun s -> s.T.parent_id = None) spans in
  let one_root = List.length roots = 1 in
  let trace_id =
    match roots with [ r ] -> r.T.trace_id | _ -> "?"
  in
  let eps = 1e-9 in
  let span_ok s =
    s.T.trace_id = trace_id
    && s.T.end_wall >= s.T.start_wall
    && s.T.end_sim >= s.T.start_sim -. eps
    &&
    match s.T.parent_id with
    | None -> true
    | Some p -> (
      match Hashtbl.find_opt by_id p with
      | None -> false (* dangling parent *)
      | Some ps ->
        (* children nest inside their parent on the simulated clock —
           including server-side spans attached via the wire header *)
        ps.T.start_sim <= s.T.start_sim +. eps
        && s.T.end_sim <= ps.T.end_sim +. eps)
  in
  let acyclic s =
    let rec up seen id =
      match id with
      | None -> true
      | Some p ->
        (not (List.mem p seen))
        && (match Hashtbl.find_opt by_id p with
           | None -> false
           | Some ps -> up (p :: seen) ps.T.parent_id)
    in
    up [ s.T.span_id ] s.T.parent_id
  in
  T.dropped tr = 0 && unique_ids && one_root
  && List.for_all span_ok spans
  && List.for_all acyclic spans

let prop_well_formed =
  qtest ~count:60 "traced runs yield well-formed span trees"
    QCheck.(pair arb_query (option small_int))
    (fun (q, fault_seed) ->
      let _, _, trace = run ~traced:true ?fault_seed q in
      match trace with
      | Some tr -> well_formed tr
      | None -> false)

(* ---- (b) observational transparency ----------------------------------- *)

let prop_transparent =
  qtest ~count:50
    "tracing changes neither results, Stats nor the fault schedule"
    QCheck.(pair arb_query small_int)
    (fun (q, seed) ->
      let o_off, st_off, _ = run ~traced:false ~fault_seed:seed q in
      let o_on, st_on, _ = run ~traced:true ~fault_seed:seed q in
      o_off = o_on && wire_stats st_off = wire_stats st_on)

let prop_transparent_fault_free =
  qtest ~count:40 "transparency holds on a fault-free wire" arb_query
    (fun q ->
      let o_off, st_off, _ = run ~traced:false q in
      let o_on, st_on, _ = run ~traced:true q in
      o_off = o_on && wire_stats st_off = wire_stats st_on)

(* ---- (c) durations reconcile with Stats ------------------------------- *)

let prop_durations_reconcile =
  qtest ~count:40 "leaf span durations reconcile with Stats buckets"
    arb_query (fun q ->
      let _, st, trace = run ~traced:true q in
      let tr = Option.get trace in
      let spans = T.spans tr in
      let is_leaf s =
        not (List.exists (fun c -> c.T.parent_id = Some s.T.span_id) spans)
      in
      let sum cat =
        List.fold_left
          (fun acc s ->
            if s.T.cat = cat && is_leaf s then
              acc +. (s.T.end_wall -. s.T.start_wall)
            else acc)
          0. spans
      in
      let module St = Xd_xrpc.Stats in
      (* spans cover at least the timed region, plus only per-span
         bookkeeping — a generous absolute tolerance keeps the property
         robust on loaded machines *)
      let close span_sum bucket =
        span_sum >= bucket -. 1e-9 && span_sum -. bucket <= 0.05
      in
      close (sum "serialize") (St.seconds st St.serialize_s)
      && close (sum "shred") (St.seconds st St.shred_s))

(* ---- (d) the declared Stats metrics ---------------------------------- *)

module St = Xd_xrpc.Stats
module M = Xd_obs.Metrics

let declared mode =
  List.filter_map (fun (n, m) -> if m = mode then Some n else None)
    (St.declared ())

let test_names_unique () =
  let names = List.map fst (St.declared ()) in
  check_int "no name declared twice" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* create registers the eager metrics and the histograms, nothing else *)
  let hists =
    [ "hist.message_bytes"; "hist.remote_exec_s"; "hist.serialize_s";
      "hist.shred_s" ]
  in
  Alcotest.(check (list string))
    "create registers exactly the eager metrics"
    (List.sort compare (declared `Eager @ hists))
    (M.names (St.registry (St.create ())))

let test_reads_never_register () =
  let st = St.create () in
  let before = M.names (St.registry st) in
  check_int "an unwritten lazy counter reads 0" 0
    (St.count st St.codec_decodes);
  check_bool "an unwritten lazy gauge reads 0"
    (St.seconds st St.ov_queue_wait_s = 0.);
  Alcotest.(check (list string))
    "reads register nothing" before
    (M.names (St.registry st));
  (* a run reads every declared metric into its timing record *)
  let net, client = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|count(doc("xrpc://peerA/students.xml")//student)|}
  in
  ignore (E.run ~codec:false net ~client S.By_projection q);
  let names = M.names (St.registry net.Xd_xrpc.Network.stats) in
  check_bool "a run without features registers no lazy metric"
    (List.for_all (fun n -> not (List.mem n names)) (declared `Lazy))

let test_lazy_on_first_write () =
  let st = St.create () in
  let reg = St.registry st in
  check_bool "absent before its first write"
    (not (List.mem "overload.shed" (M.names reg)));
  St.incr st St.ov_shed;
  St.add st St.ov_queue_wait_s 0.5;
  check_bool "present after it"
    (List.mem "overload.shed" (M.names reg)
    && List.mem "overload.queue_wait_s" (M.names reg));
  check_int "counted" 1 (St.count st St.ov_shed);
  let names = M.names reg in
  St.reset st;
  Alcotest.(check (list string)) "reset unregisters nothing" names
    (M.names reg);
  check_int "reset zeroes a counter" 0 (St.count st St.ov_shed);
  check_bool "reset zeroes a gauge" (St.seconds st St.ov_queue_wait_s = 0.);
  St.incr st St.ov_shed;
  check_int "the handle survives reset" 1 (St.count st St.ov_shed)

let () =
  Alcotest.run "xd_trace"
    [
      ( "registry",
        [
          tc "declared names are unique" test_names_unique;
          tc "reads never register" test_reads_never_register;
          tc "lazy metrics register on first write" test_lazy_on_first_write;
        ] );
      ( "properties",
        [
          prop_well_formed;
          prop_transparent;
          prop_transparent_fault_free;
          prop_durations_reconcile;
        ] );
    ]
