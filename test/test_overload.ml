(* Tests for the overload layer (PROTOCOL.md, "Deadlines & overload"):
   deadline budgets that shrink across hops, no work after expiry,
   deterministic breakers, and the shedding-beats-FIFO goodput property
   of the bounded-capacity server model. *)

module M = Xd_xrpc.Message
module S = Xd_core.Strategy
module E = Xd_core.Executor
module O = Xd_xrpc.Overload
open Util

let little_doc = "<r><x>1</x><x>2</x><x>3</x></r>"

let make_net ?overload ?fault () =
  let fault =
    match fault with
    | None -> Xd_xrpc.Fault.none
    | Some s -> (
      match Xd_xrpc.Fault.parse s with
      | Ok spec -> Xd_xrpc.Fault.create ~seed:0 spec
      | Error e -> failwith e)
  in
  let net = Xd_xrpc.Network.create ~fault () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let p1 = Xd_xrpc.Network.new_peer net "peer1" in
  let p2 = Xd_xrpc.Network.new_peer net "peer2" in
  ignore (Xd_xrpc.Peer.load_xml p1 ~doc_name:"d.xml" little_doc);
  ignore (Xd_xrpc.Peer.load_xml p2 ~doc_name:"e.xml" little_doc);
  Option.iter (Xd_xrpc.Network.set_overload net) overload;
  (net, client, p1, p2)

(* Every budget a recorded request carries, in wire order. *)
let recorded_deadlines recorded =
  List.filter_map
    (fun r ->
      match r.Xd_xrpc.Session.dir with
      | `Response _ -> None
      | `Request _ -> (
        let text = r.Xd_xrpc.Session.text in
        let marker = " deadline=\"" in
        let mlen = String.length marker in
        let rec find i =
          if i + mlen > String.length text then None
          else if String.sub text i mlen = marker then
            Some (float_of_string (String.sub text (i + mlen) 15))
          else find (i + 1)
        in
        find 0))
    recorded

(* ---- deadline monotonicity across hops ------------------------------------ *)

(* Each message pre-subtracts its own wire time from the budget it
   carries, and the simulated clock only moves forward — so along any
   recorded run the stamped budgets strictly decrease, hop by hop, and
   never exceed the query's initial budget. Nested calls (client ->
   peer1 -> peer2) exercise re-stamping at an intermediate hop. *)

let arb_monotonic =
  QCheck.make
    ~print:(fun (d, fan, nested) ->
      Printf.sprintf "deadline=%.4f fan=%d nested=%b" d fan nested)
    QCheck.Gen.(
      triple (float_range 0.05 2.0) (int_range 1 3) bool)

let prop_deadline_monotonic =
  qtest ~count:400 "stamped budgets decrease across hops" arb_monotonic
    (fun (deadline, fan, nested) ->
      let net, client, _, _ = make_net () in
      let record = ref [] in
      let session =
        Xd_xrpc.Session.create ~record ~deadline net client M.By_fragment
      in
      let body =
        if nested then
          {|execute at {"peer1"} function ()
              { execute at {"peer2"} function () { 1 } }|}
        else {|execute at {"peer1"} function () { 1 }|}
      in
      let q =
        Xd_lang.Parser.parse_query
          (String.concat ","
             (List.init fan (fun _ -> body))
          |> Printf.sprintf "(%s)")
      in
      ignore (Xd_xrpc.Session.execute session q);
      let ds = recorded_deadlines (List.rev !record) in
      List.length ds >= fan
      (* the wire format has 6 decimals, so a stamp may round up to
         half an ulp above the true budget *)
      && List.for_all (fun d -> d > 0. && d <= deadline +. 5e-7) ds
      && fst
           (List.fold_left
              (fun (ok, prev) d -> (ok && d < prev, d))
              (true, infinity) ds))

(* ---- no work after the deadline ------------------------------------------- *)

(* An update whose budget has expired must leave every store
   byte-identical: the admission gate refuses it before any evaluation.
   With a generous budget the same update applies. Either way the
   outcome is all-or-nothing against the deadline. *)

let arb_tiny_deadline =
  QCheck.make
    ~print:(fun d -> Printf.sprintf "deadline=%.6f" d)
    QCheck.Gen.(float_range 1e-6 1.0)

let prop_no_work_after_deadline =
  qtest ~count:300 "expired budget leaves stores byte-identical"
    arb_tiny_deadline (fun deadline ->
      let net, client, p1, _ = make_net () in
      let before = Xd_xml.Serializer.doc (Option.get (Xd_xrpc.Peer.find_doc p1 "d.xml")) in
      let session =
        Xd_xrpc.Session.create ~deadline net client M.By_fragment
      in
      let q =
        Xd_lang.Parser.parse_query
          {|execute at {"peer1"} function ()
              { insert node <y/> into doc("d.xml")/child::r }|}
      in
      let after () =
        Xd_xml.Serializer.doc (Option.get (Xd_xrpc.Peer.find_doc p1 "d.xml"))
      in
      match Xd_xrpc.Session.execute session q with
      | _ -> after () <> before
      | exception M.Xrpc_fault { code = M.Deadline_exceeded; _ } ->
        after () = before)

(* ---- fault-schedule invisibility ------------------------------------------ *)

(* PROTOCOL.md, "Fault-schedule invisibility": a deadline is billed but
   hidden from the fault layer, so a budget that never expires leaves a
   seeded drop/dup/truncate schedule hitting the very same messages —
   the same fault counts by kind, messages, retries and result (or fault
   code) as the run without one. *)

let gen_wire_spec =
  let open QCheck.Gen in
  let rule =
    let* target = oneofl [ ""; "peerA:"; "peerB:" ] in
    let* kind = oneofl [ "drop"; "dup"; "truncate" ] in
    let* prob = oneofl [ "@0.2"; "@0.5"; "@1" ] in
    let* limit = oneofl [ ""; "#1"; "#3" ] in
    return (target ^ kind ^ prob ^ limit)
  in
  let* n = int_range 1 3 in
  let* rules = list_size (return n) rule in
  return (String.concat ";" rules)

let arb_invisible =
  QCheck.make
    ~print:(fun (q, spec, seed, s) ->
      Printf.sprintf "%s\nspec %S, seed %d, %s" (Xd_lang.Pp.query_to_string q)
        spec seed (S.to_string s))
    QCheck.Gen.(
      quad Gen_queries.gen_query gen_wire_spec (int_bound 9999)
        (oneofl [ S.By_value; S.By_fragment; S.By_projection ]))

let faults_by_kind net =
  let reg = Xd_xrpc.Stats.registry net.Xd_xrpc.Network.stats in
  List.filter_map
    (fun name ->
      if String.starts_with ~prefix:"xrpc.faults" name then
        Some (name, Xd_obs.Metrics.(counter_value (counter reg name)))
      else None)
    (List.sort compare (Xd_obs.Metrics.names reg))

let prop_deadline_invisible =
  qtest ~count:250 "a deadline leaves the fault schedule as it was"
    arb_invisible (fun (q, spec, seed, strategy) ->
      let once ?deadline () =
        let fault =
          match Xd_xrpc.Fault.parse spec with
          | Ok s -> Xd_xrpc.Fault.create ~seed s
          | Error e -> failwith e
        in
        let net, client = Gen_queries.make_net ~fault () in
        let outcome =
          match E.run ?deadline ~timeout_s:0.5 ~retries:2 net ~client strategy q with
          | r -> "value: " ^ Xd_lang.Value.serialize r.E.value
          | exception M.Xrpc_fault { code; _ } ->
            "fault: " ^ M.fault_code_to_string code
          | exception M.Xrpc_timeout { attempts; _ } ->
            Printf.sprintf "timeout after %d" attempts
          | exception e -> "error: " ^ Printexc.to_string e
        in
        let st = net.Xd_xrpc.Network.stats in
        let c = Xd_xrpc.Stats.count st in
        ( outcome,
          faults_by_kind net,
          c Xd_xrpc.Stats.messages,
          c Xd_xrpc.Stats.retries,
          c Xd_xrpc.Stats.timeouts )
      in
      once () = once ~deadline:1e6 ())

(* ---- breaker determinism --------------------------------------------------- *)

(* Same fault seed, same sequence of calls: the breaker opens at the
   same point, sheds the same calls, and the wire is byte-identical run
   to run. *)

let overload_model () = O.create ~capacity:2 ~service_s:0.001 ()

let breaker_run calls =
  let net, client, _, _ = make_net ~overload:(overload_model ()) ~fault:"peer1:down" () in
  let record = ref [] in
  let session =
    Xd_xrpc.Session.create ~record net client M.By_fragment
  in
  let q =
    Xd_lang.Parser.parse_query
      (Printf.sprintf "(%s)"
         (String.concat ","
            (List.init calls (fun i ->
                 Printf.sprintf
                   {|execute at {"peer1"} function () { %d }|} i))))
  in
  let v = Xd_lang.Value.serialize (Xd_xrpc.Session.execute session q) in
  let stats = net.Xd_xrpc.Network.stats in
  ( v,
    List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record),
    Xd_xrpc.Stats.
      ( count stats breaker_opens,
        count stats breaker_shed,
        count stats ov_admitted ) )

let prop_breaker_deterministic =
  qtest ~count:250 "breaker schedule replays exactly"
    (QCheck.make
       ~print:(fun n -> Printf.sprintf "calls=%d" n)
       QCheck.Gen.(int_range 3 6))
    (fun calls ->
      let v1, wire1, st1 = breaker_run calls in
      let v2, wire2, st2 = breaker_run calls in
      let opens, shed, _ = st1 in
      v1 = v2 && wire1 = wire2 && st1 = st2
      (* the threshold is 3 consecutive failures, so >3 calls to a dead
         peer must have opened the breaker and shed the surplus *)
      && opens >= 1
      && shed = calls - 3)

(* ---- goodput never worse with shedding ------------------------------------ *)

(* The bench's acceptance property as a random test: past saturation,
   the bounded queue + deadline budget always answers at least as many
   requests in budget as the unbounded FIFO. A miniature of
   bench/experiments.ml's open loop (arrivals pin the simulated clock,
   the peer's busy slots persist across requests). *)

let shedding_goodput ~shedding ~load ~requests =
  let capacity = 2 and service_s = 0.01 and deadline = 0.1 in
  let net, client, _, _ =
    make_net
      ~overload:
        (O.create ~capacity
           ~queue_cap:(if shedding then 8 else 1_000_000)
           ~service_s ())
      ()
  in
  let plan_q =
    Xd_lang.Parser.parse_query
      {|execute at {"peer1"} function ()
          { count(doc("d.xml")/child::r/child::x) }|}
  in
  let stats = net.Xd_xrpc.Network.stats in
  let rate = load *. float_of_int capacity /. service_s in
  let ok = ref 0 in
  for i = 0 to requests - 1 do
    let arrival = float_of_int i /. rate in
    Xd_xrpc.Stats.(set stats network_s arrival);
    let session =
      Xd_xrpc.Session.create
        ?deadline:(if shedding then Some deadline else None)
        net client M.By_fragment
    in
    match Xd_xrpc.Session.execute session plan_q with
    | _ ->
      if Xd_xrpc.Stats.(seconds stats network_s) -. arrival <= deadline then
        incr ok
    | exception M.Xrpc_fault _ -> ()
    | exception M.Xrpc_timeout _ -> ()
  done;
  float_of_int !ok /. float_of_int requests

let prop_goodput_never_worse =
  qtest ~count:60 "shedding goodput >= FIFO goodput past saturation"
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "load=%.2fx" l)
       QCheck.Gen.(float_range 1.5 2.5))
    (fun load ->
      let requests = 150 in
      shedding_goodput ~shedding:true ~load ~requests
      >= shedding_goodput ~shedding:false ~load ~requests)

(* ---- unit pins -------------------------------------------------------------- *)

let test_admit_pinned () =
  (* the admission arithmetic, worked by hand: capacity 2, queue 2,
     service 10ms *)
  let t = O.create ~capacity:2 ~queue_cap:2 ~service_s:0.01 () in
  (match O.admit t ~peer:"p" ~now:0. ~units:1 () with
  | O.Admit { wait_s; depth; _ } ->
    check_bool "first runs at once" (wait_s = 0. && depth = 0)
  | _ -> check_bool "first admitted" false);
  (match O.admit t ~peer:"p" ~now:0. ~units:1 () with
  | O.Admit { wait_s; _ } -> check_bool "second slot free" (wait_s = 0.)
  | _ -> check_bool "second admitted" false);
  (* both slots busy: the next two queue behind them *)
  (match O.admit t ~peer:"p" ~now:0. ~units:1 () with
  | O.Admit { wait_s; depth; _ } ->
    check_bool "third queues 10ms" (abs_float (wait_s -. 0.01) < 1e-9);
    check_int "third is first in queue" 0 depth
  | _ -> check_bool "third admitted" false);
  (match O.admit t ~peer:"p" ~now:0. ~units:1 () with
  | O.Admit { depth; _ } -> check_int "fourth queues behind" 1 depth
  | _ -> check_bool "fourth admitted" false);
  (* queue full: shed with the time to the earliest free slot *)
  (match O.admit t ~peer:"p" ~now:0. ~units:1 () with
  | O.Busy { retry_after_s } -> check_bool "busy hints" (retry_after_s > 0.)
  | _ -> check_bool "fifth shed" false);
  (* a budget the wait cannot fit is hopeless, not busy *)
  let t2 = O.create ~capacity:1 ~queue_cap:8 ~service_s:0.01 () in
  ignore (O.admit t2 ~peer:"p" ~now:0. ~units:1 ());
  match O.admit t2 ~peer:"p" ~now:0. ~deadline:0.005 ~units:1 () with
  | O.Hopeless { needed_s } ->
    check_bool "needs wait+service" (abs_float (needed_s -. 0.02) < 1e-9)
  | _ -> check_bool "hopeless rejected" false

let test_breaker_pinned () =
  let t = O.create () in
  (* threshold 3: two failures stay closed, the third opens *)
  O.breaker_failure t ~peer:"p" ~now:0.;
  O.breaker_failure t ~peer:"p" ~now:0.;
  check_bool "still closed" (O.breaker_state t ~peer:"p" = O.Closed);
  O.breaker_failure t ~peer:"p" ~now:0.;
  check_bool "opened" (O.breaker_state t ~peer:"p" = O.Open);
  check_int "one open" 1 (O.breaker_opens t);
  (match O.breaker_check t ~peer:"p" ~now:0.01 with
  | O.Shed { until } ->
    (* base cooldown 50ms *)
    check_bool "cooldown 50ms" (abs_float (until -. 0.05) < 1e-9)
  | _ -> check_bool "shed while open" false);
  (* past the cooldown the next call is the half-open probe *)
  (match O.breaker_check t ~peer:"p" ~now:0.06 with
  | O.Probe -> ()
  | _ -> check_bool "probe after cooldown" false);
  (* a failed probe re-opens with the doubled cooldown *)
  O.breaker_failure t ~peer:"p" ~now:0.06;
  check_int "re-opened" 2 (O.breaker_opens t);
  (match O.breaker_check t ~peer:"p" ~now:0.07 with
  | O.Shed { until } ->
    check_bool "doubled cooldown" (abs_float (until -. 0.16) < 1e-9)
  | _ -> check_bool "shed after failed probe" false);
  (* success closes and resets everything *)
  (match O.breaker_check t ~peer:"p" ~now:0.2 with
  | O.Probe -> ()
  | _ -> check_bool "second probe" false);
  O.breaker_success t ~peer:"p";
  check_bool "closed again" (O.breaker_state t ~peer:"p" = O.Closed);
  match O.breaker_check t ~peer:"p" ~now:0.3 with
  | O.Proceed -> ()
  | _ -> check_bool "proceed once closed" false

let () =
  Alcotest.run "overload"
    [
      ( "model",
        [ tc "admission pinned" test_admit_pinned;
          tc "breaker pinned" test_breaker_pinned ] );
      ( "deadline",
        [
          prop_deadline_monotonic;
          prop_no_work_after_deadline;
          prop_deadline_invisible;
        ] );
      ("breaker", [ prop_breaker_deterministic ]);
      ("goodput", [ prop_goodput_never_worse ]);
    ]
