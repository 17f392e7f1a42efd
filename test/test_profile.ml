(* Property tests for the per-vertex profiler (lib/obs/profile): the
   actuals --explain folds out of a span tree must reconcile with the
   Stats registry totals the same run recorded.

   The profiler's exact set — bytes, serialize/shred/remote seconds,
   calls, fallbacks — comes from [busy_s]/[bytes] span attributes that
   record the *measured Stats delta* of each traced accounting region,
   so the per-vertex rows must sum back to the registry gauges to float
   rounding, whatever the run hit: wire faults, retries, dedup replay,
   membership churn mid-call, or an overloaded admission queue.
   Queue-wait reconciles exactly only on a fault-free wire (a dropped
   trace header leaves the server's charge unattributed), so that check
   is confined to the fault-free property. *)

module Ast = Xd_lang.Ast
module E = Xd_core.Executor
module S = Xd_core.Strategy
module T = Xd_obs.Trace
module P = Xd_obs.Profile
module St = Xd_xrpc.Stats
open Util

let arb_query = Gen_queries.arb_query
let fault_spec = "drop@0.25#2;dup@0.15#1"

let students_xml =
  {|<people>
      <person id="s1"><name>Ann</name><tutor>Bob</tutor><id>1</id><age>23</age></person>
      <person id="s2"><name>Bob</name><tutor>Zoe</tutor><id>2</id><age>35</age></person>
      <person id="s3"><name>Cyd</name><tutor>Ann</tutor><id>3</id><age>29</age></person>
      <person id="s4"><name>Dan</name><tutor>Cyd</tutor><id>4</id><age>41</age></person>
    </people>|}

(* [moves]: a scripted ownership shuffle of students.xml; both peers hold
   a copy so the document stays servable wherever the catalog points. *)
let run ?(overload = false) ?(moves = []) ?fault_seed q =
  let fault =
    match fault_seed with
    | None -> Xd_xrpc.Fault.none
    | Some seed -> (
      match Xd_xrpc.Fault.parse fault_spec with
      | Ok spec -> Xd_xrpc.Fault.create ~seed spec
      | Error e -> failwith e)
  in
  let net, client = Gen_queries.make_net ~fault () in
  if overload then
    Xd_xrpc.Network.set_overload net
      (Xd_xrpc.Overload.create ~capacity:1 ~queue_cap:4 ~service_s:0.001 ());
  if moves <> [] then begin
    let b = Xd_xrpc.Network.find_peer net "peerB" in
    ignore (Xd_xrpc.Peer.load_xml b ~doc_name:"students.xml" students_xml);
    let cat = Xd_topo.Catalog.create () in
    Xd_topo.Catalog.register cat ~doc:"students.xml" ~owner:"peerA" ();
    Xd_topo.Catalog.register cat ~doc:"course.xml" ~owner:"peerB" ();
    Xd_xrpc.Network.set_catalog net cat;
    Xd_xrpc.Network.set_churn net
      (Xd_topo.Churn.create
         (List.map
            (fun (n, to_b) ->
              ( n,
                Xd_topo.Churn.Move
                  {
                    doc = "students.xml";
                    owner = (if to_b then "peerB" else "peerA");
                  } ))
            moves))
  end;
  let trace = T.create () in
  (match E.run ~trace net ~client S.By_projection q with
  | _ -> ()
  | exception Xd_xrpc.Message.Xrpc_fault _
  | exception Xd_xrpc.Message.Xrpc_timeout _
  | exception Xd_lang.Env.Dynamic_error _
  | exception Xd_lang.Value.Type_error _ ->
    ());
  (net.Xd_xrpc.Network.stats, trace)

let feq a b = Float.abs (a -. b) <= 1e-6

let reconciles ?(queue_exact = false) st tr =
  (* a saturated ring would drop spans and their attrs with them; the
     generator's queries never get near the 65536 cap *)
  T.dropped tr = 0
  &&
  let tot = P.totals (P.of_spans (T.spans tr)) in
  let c = St.count st and s = St.seconds st in
  tot.P.bytes = St.total_bytes st
  && tot.P.calls = c St.calls
  && tot.P.fallbacks = c St.fallbacks
  && feq tot.P.serialize_s (s St.serialize_s)
  && feq tot.P.shred_s (s St.shred_s)
  && feq tot.P.remote_s (s St.remote_exec_s)
  && ((not queue_exact) || feq tot.P.queue_wait_s (s St.ov_queue_wait_s))

let prop_reconcile_faults =
  qtest ~count:300 "per-vertex actuals sum to Stats totals under faults"
    QCheck.(pair arb_query (option small_int))
    (fun (q, fault_seed) ->
      let st, tr = run ?fault_seed q in
      reconciles st tr)

let prop_reconcile_fault_free =
  qtest ~count:250
    "fault-free: totals reconcile and queue-wait is exact under overload"
    arb_query
    (fun q ->
      let st, tr = run ~overload:true q in
      reconciles ~queue_exact:true st tr)

let prop_reconcile_churn =
  qtest ~count:250 "totals reconcile under membership churn"
    QCheck.(
      pair arb_query
        (list_of_size (Gen.int_bound 4)
           (pair (int_range 1 8) bool)))
    (fun (q, moves) ->
      let st, tr = run ~moves q in
      reconciles st tr)

let prop_reconcile_overload_faults =
  qtest ~count:150 "totals reconcile under overload plus wire faults"
    QCheck.(pair arb_query small_int)
    (fun (q, seed) ->
      let st, tr = run ~overload:true ~fault_seed:seed q in
      reconciles st tr)

(* Every profiled vertex is either the client pseudo-vertex or a real
   execute-at body id of the plan that ran — attribution never invents
   vertices. *)
let prop_vertices_exist =
  qtest ~count:100 "profile rows map to plan vertices"
    QCheck.(pair arb_query (option small_int))
    (fun (q, fault_seed) ->
      let fault =
        match fault_seed with
        | None -> Xd_xrpc.Fault.none
        | Some seed -> (
          match Xd_xrpc.Fault.parse fault_spec with
          | Ok spec -> Xd_xrpc.Fault.create ~seed spec
          | Error e -> failwith e)
      in
      let net, client = Gen_queries.make_net ~fault () in
      let trace = T.create () in
      match E.run ~trace net ~client S.By_projection q with
      | exception _ -> true (* no plan to check against *)
      | r ->
        let ids = Hashtbl.create 8 in
        let rec walk (e : Ast.expr) =
          (match e.Ast.desc with
          | Ast.Execute_at x -> Hashtbl.replace ids x.Ast.body.Ast.id ()
          | _ -> ());
          List.iter walk (Ast.children e)
        in
        let pq = r.E.plan.Xd_core.Decompose.query in
        walk pq.Ast.body;
        List.iter (fun (f : Ast.func) -> walk f.Ast.f_body) pq.Ast.funcs;
        List.for_all
          (fun (row : P.row) ->
            row.P.vertex = P.local_vertex || Hashtbl.mem ids row.P.vertex)
          (P.rows (P.of_spans (T.spans trace))))

let () =
  Alcotest.run "xd_profile"
    [
      ( "properties",
        [
          prop_reconcile_faults;
          prop_reconcile_fault_free;
          prop_reconcile_churn;
          prop_reconcile_overload_faults;
          prop_vertices_exist;
        ] );
    ]
