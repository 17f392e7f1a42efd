(* Dynamic topology: the peer catalog against an independent model oracle,
   forwarding loop-freedom under scripted ownership churn, parallel ≡
   sequential execution under the same churn script, epoch-mismatch 2PC
   aborts leaving every store untouched, and the deterministic retry
   jitter. *)

module C = Xd_topo.Catalog
module Ch = Xd_topo.Churn
module M = Xd_xrpc.Message
module E = Xd_core.Executor
module S = Xd_core.Strategy
open Util

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- the catalog vs a purely functional oracle ---------------------------- *)

(* An assoc-list re-implementation of the catalog semantics, written
   against the documented contract (catalog.mli), not the code: register
   without epoch bump, move/join/leave with one bump each, leave promoting
   the first *live* replica, liveness marks without bumps, unknown peers
   presumed up. *)

type model = {
  m_entries : (string * (string * string list)) list;
  m_members : (string * bool) list;
  m_epoch : int;
}

let m_empty = { m_entries = []; m_members = []; m_epoch = 0 }
let set k v l = (k, v) :: List.remove_assoc k l
let m_enroll p m =
  if List.mem_assoc p m.m_members then m
  else { m with m_members = set p true m.m_members }

type op =
  | Register of string * string * string list
  | Move of string * string
  | Join of string
  | Leave of string
  | Mark_down of string
  | Mark_up of string

let m_apply m = function
  | Register (doc, owner, replicas) ->
    let m = { m with m_entries = set doc (owner, replicas) m.m_entries } in
    List.fold_left (fun m p -> m_enroll p m) m (owner :: replicas)
  | Move (doc, owner) ->
    let replicas =
      match List.assoc_opt doc m.m_entries with
      | Some (o, rs) -> List.filter (fun r -> r <> owner && r <> o) rs
      | None -> []
    in
    let m = { m with m_entries = set doc (owner, replicas) m.m_entries } in
    let m = m_enroll owner m in
    { m with m_epoch = m.m_epoch + 1 }
  | Join p ->
    { m with m_members = set p true m.m_members; m_epoch = m.m_epoch + 1 }
  | Leave p ->
    let members = List.remove_assoc p m.m_members in
    let live r =
      match List.assoc_opt r members with Some up -> up | None -> false
    in
    let entries =
      List.map
        (fun (doc, (owner, rs)) ->
          let rs = List.filter (fun r -> r <> p) rs in
          if owner = p then
            match List.find_opt live rs with
            | Some promoted ->
              (doc, (promoted, List.filter (fun r -> r <> promoted) rs))
            | None -> (doc, (owner, rs))
          else (doc, (owner, rs)))
        m.m_entries
    in
    { m_entries = entries; m_members = members; m_epoch = m.m_epoch + 1 }
  | Mark_down p -> { m with m_members = set p false m.m_members }
  | Mark_up p -> { m with m_members = set p true m.m_members }

let c_apply cat = function
  | Register (doc, owner, replicas) -> C.register cat ~doc ~owner ~replicas ()
  | Move (doc, owner) -> C.move cat ~doc ~owner
  | Join p -> C.join cat p
  | Leave p -> C.leave cat p
  | Mark_down p -> C.mark_down cat p
  | Mark_up p -> C.mark_up cat p

let docs = [ "a.xml"; "b.xml"; "c.xml" ]
let peers = [ "p1"; "p2"; "p3"; "p4" ]

let gen_op =
  let open QCheck.Gen in
  let doc = oneofl docs and peer = oneofl peers in
  frequency
    [
      ( 3,
        map3
          (fun d o rs -> Register (d, o, List.filter (fun r -> r <> o) rs))
          doc peer
          (list_size (int_bound 2) peer) );
      (3, map2 (fun d o -> Move (d, o)) doc peer);
      (2, map (fun p -> Join p) peer);
      (2, map (fun p -> Leave p) peer);
      (2, map (fun p -> Mark_down p) peer);
      (2, map (fun p -> Mark_up p) peer);
    ]

let op_to_string = function
  | Register (d, o, rs) ->
    Printf.sprintf "register %s->%s[%s]" d o (String.concat "," rs)
  | Move (d, o) -> Printf.sprintf "move %s->%s" d o
  | Join p -> "join " ^ p
  | Leave p -> "leave " ^ p
  | Mark_down p -> "down " ^ p
  | Mark_up p -> "up " ^ p

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_bound 20) gen_op)

let agrees cat m =
  let m_entries =
    List.map (fun (doc, (owner, replicas)) -> { C.doc; owner; replicas }) m.m_entries
    |> List.sort (fun a b -> compare a.C.doc b.C.doc)
  in
  C.entries cat = m_entries
  && C.members cat = List.sort compare m.m_members
  && C.epoch cat = m.m_epoch
  && List.for_all
       (fun d ->
         C.owner_of cat d = Option.map fst (List.assoc_opt d m.m_entries))
       docs
  && List.for_all
       (fun p ->
         C.is_up cat p
         = (match List.assoc_opt p m.m_members with
           | Some up -> up
           | None -> true)
         && List.for_all
              (fun d ->
                C.serves cat ~peer:p ~doc:d
                = (match List.assoc_opt d m.m_entries with
                  | Some (o, rs) -> o = p || List.mem p rs
                  | None -> false))
              docs)
       peers

let prop_catalog_oracle =
  qtest ~count:1000 "catalog = oracle on random op sequences" arb_ops
    (fun ops ->
      let cat = C.create () in
      List.for_all
        (fun (op, m) ->
          c_apply cat op;
          agrees cat m)
        (snd
           (List.fold_left
              (fun (m, acc) op ->
                let m = m_apply m op in
                (m, acc @ [ (op, m) ]))
              (m_empty, []) ops)))

(* ---- forwarding terminates under arbitrary move schedules ----------------- *)

let little_doc = "<r><x>1</x><x>2</x><x>3</x></r>"

let make_net3 () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let ps =
    List.map
      (fun name ->
        let p = Xd_xrpc.Network.new_peer net name in
        ignore (Xd_xrpc.Peer.load_xml p ~doc_name:"d.xml" little_doc);
        p)
      [ "peer1"; "peer2"; "peer3" ]
  in
  (net, client, ps)

let arb_moves =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (n, p) -> Printf.sprintf "%d:move=d.xml/peer%d" n p) l))
    QCheck.Gen.(list_size (int_bound 5) (pair (int_range 1 8) (int_range 1 3)))

(* Whatever the move schedule does — including moving the document away
   again while a redirect is in flight — the call either completes with
   the right answer or fails with the typed unroutable fault. It never
   loops, never leaks a native exception, never answers wrong. *)
let prop_forward_loop_free =
  qtest ~count:300 "forwarding: right answer or typed unroutable" arb_moves
    (fun moves ->
      let net, client, _ = make_net3 () in
      let cat = C.create () in
      C.register cat ~doc:"d.xml" ~owner:"peer1" ();
      Xd_xrpc.Network.set_catalog net cat;
      Xd_xrpc.Network.set_churn net
        (Ch.create
           (List.map
              (fun (n, p) ->
                (n, Ch.Move { doc = "d.xml"; owner = Printf.sprintf "peer%d" p }))
              moves));
      let session = Xd_xrpc.Session.create net client M.By_fragment in
      let q =
        Xd_lang.Parser.parse_query
          {|execute at {"peer1"} function ()
              { count(doc("d.xml")/child::r/child::x) }|}
      in
      match Xd_xrpc.Session.execute session q with
      | v -> Xd_lang.Value.serialize v = "3"
      | exception M.Xrpc_fault { code = M.Topo_unroutable; _ } -> true)

(* ---- parallel ≡ sequential under the same churn script -------------------- *)

type churn_ev = Cmove of string * int | Cdown of int | Cup of int | Cjoin

let arb_churn =
  let open QCheck.Gen in
  let ev =
    frequency
      [
        ( 3,
          map2
            (fun d p -> Cmove ((if d then "d.xml" else "e.xml"), p))
            bool (int_range 1 2) );
        (2, map (fun p -> Cdown p) (int_range 1 2));
        (2, map (fun p -> Cup p) (int_range 1 2));
        (1, return Cjoin);
      ]
  in
  QCheck.make
    ~print:(fun l -> Printf.sprintf "%d events" (List.length l))
    (list_size (int_bound 4) (pair (int_range 1 8) ev))

let churn_of evs =
  Ch.create
    (List.map
       (fun (n, ev) ->
         ( n,
           match ev with
           | Cmove (doc, p) ->
             Ch.Move { doc; owner = Printf.sprintf "peer%d" p }
           | Cdown p -> Ch.Down (Printf.sprintf "peer%d" p)
           | Cup p -> Ch.Up (Printf.sprintf "peer%d" p)
           | Cjoin -> Ch.Join "peer9" ))
       evs)

let fanout_plan () =
  Xd_core.Decompose.plan_of_query S.By_fragment
    (Xd_lang.Parser.parse_query
       {|(execute at {"peer1"} function ()
            { count(doc("d.xml")/child::r/child::x) },
          execute at {"peer2"} function ()
            { count(doc("e.xml")/child::r/child::x) })|})

(* Both peers hold both documents, so any move schedule stays servable. *)
let make_net2 () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let ps =
    List.map
      (fun name ->
        let p = Xd_xrpc.Network.new_peer net name in
        ignore (Xd_xrpc.Peer.load_xml p ~doc_name:"d.xml" little_doc);
        ignore (Xd_xrpc.Peer.load_xml p ~doc_name:"e.xml" little_doc);
        p)
      [ "peer1"; "peer2" ]
  in
  (net, client, ps)

let prop_par_seq_churn =
  qtest ~count:200 "parallel = sequential under churn" arb_churn (fun evs ->
      let outcome ~parallel =
        let net, client, _ = make_net2 () in
        let cat = C.create () in
        C.register cat ~doc:"d.xml" ~owner:"peer1" ();
        C.register cat ~doc:"e.xml" ~owner:"peer2" ();
        Xd_xrpc.Network.set_catalog net cat;
        Xd_xrpc.Network.set_churn net (churn_of evs);
        match E.run_plan ~parallel net ~client (fanout_plan ()) with
        | r -> `Value (Xd_lang.Value.serialize r.E.value)
        | exception M.Xrpc_fault { code; _ } -> `Fault code
      in
      outcome ~parallel:true = outcome ~parallel:false)

(* ---- epoch mismatch: 2PC refuses to commit across a membership change ----- *)

let store_snapshot peers =
  List.map
    (fun (p, doc) ->
      match Xd_xrpc.Peer.find_doc p doc with
      | Some d -> Xd_xml.Serializer.doc d
      | None -> "")
    peers

let update_plan () =
  Xd_core.Decompose.plan_of_query S.By_fragment
    (Xd_lang.Parser.parse_query
       {|(execute at {"peer1"} function ()
            { insert node <y/> into doc("d.xml")/child::r },
          execute at {"peer2"} function ()
            { insert node <z/> into doc("e.xml")/child::r })|})

let make_update_net () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let p1 = Xd_xrpc.Network.new_peer net "peer1" in
  let p2 = Xd_xrpc.Network.new_peer net "peer2" in
  ignore (Xd_xrpc.Peer.load_xml p1 ~doc_name:"d.xml" little_doc);
  ignore (Xd_xrpc.Peer.load_xml p2 ~doc_name:"e.xml" little_doc);
  let cat = C.create () in
  C.register cat ~doc:"d.xml" ~owner:"peer1" ();
  C.register cat ~doc:"e.xml" ~owner:"peer2" ();
  Xd_xrpc.Network.set_catalog net cat;
  (net, client, [ (p1, "d.xml"); (p2, "e.xml") ])

let arb_abort_point =
  QCheck.make
    ~print:(fun (n, p) -> Printf.sprintf "%d:join=p%d" n p)
    QCheck.Gen.(pair (int_range 1 4) (int_range 3 9))

let prop_epoch_abort_untouched =
  qtest ~count:200 "epoch bump mid-txn aborts, stores untouched"
    arb_abort_point (fun (n, p) ->
      let net, client, stores = make_update_net () in
      Xd_xrpc.Network.set_churn net
        (Ch.create [ (n, Ch.Join (Printf.sprintf "p%d" p)) ]);
      let before = store_snapshot stores in
      match E.run_plan ~txn:`Always net ~client (update_plan ()) with
      | _ -> false (* the epoch moved under the transaction: must abort *)
      | exception M.Xrpc_fault { code = M.Txn_aborted; _ } ->
        store_snapshot stores = before
        && Xd_xrpc.Stats.(count net.Xd_xrpc.Network.stats topo_epoch_aborts)
           >= 1)

let test_commit_without_churn () =
  (* control: the same transaction with a quiet catalog commits both *)
  let net, client, stores = make_update_net () in
  let before = store_snapshot stores in
  let r = E.run_plan ~txn:`Always net ~client (update_plan ()) in
  check_int "both commits applied" 1 r.E.timing.E.txn_commits;
  check_bool "stores changed" (store_snapshot stores <> before);
  check_bool "inserted at peer1"
    (contains_sub (List.nth (store_snapshot stores) 0) "<y/>");
  check_bool "inserted at peer2"
    (contains_sub (List.nth (store_snapshot stores) 1) "<z/>")

(* ---- deterministic retry jitter ------------------------------------------- *)

(* The schedule is pinned: changing the hash, the fold or the base scale
   shows up here as a literal diff, not as a silent perf drift. *)
let test_backoff_pinned () =
  let b key attempt = Xd_xrpc.Session.backoff_s ~key ~attempt in
  let close msg expected got =
    check_bool
      (Printf.sprintf "%s: expected %.17g, got %.17g" msg expected got)
      (Float.abs (expected -. got) < 1e-15)
  in
  close "req-1 attempt 2" 0.057333374023437501 (b "req-1" 2);
  close "req-1 attempt 3" 0.11533050537109375 (b "req-1" 3);
  close "req-2 attempt 2" 0.069293975830078125 (b "req-2" 2);
  close "peer1 attempt 2" 0.093427276611328131 (b "peer1" 2);
  (* the retry layer keys by "<request-id>@<host>": the same request
     re-driven at another hop (forward / failover) draws fresh jitter
     instead of replaying the first hop's schedule *)
  close "req-1@peer1 attempt 2" 0.066692352294921875 (b "req-1@peer1" 2);
  close "req-1@peer2 attempt 2" 0.079545593261718756 (b "req-1@peer2" 2);
  close "req-1@peer1 attempt 3" 0.132720947265625 (b "req-1@peer1" 3);
  close "req-1@peer2 attempt 3" 0.15975494384765626 (b "req-1@peer2" 3);
  check_bool "hops decorrelate"
    (b "req-1@peer1" 2 <> b "req-1@peer2" 2);
  (* same key and attempt always replay the same backoff *)
  check_bool "deterministic" (b "req-1" 2 = b "req-1" 2)

let prop_backoff_range =
  qtest ~count:200 "backoff in [base, 2*base) and deterministic"
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 12)) (int_range 2 6))
    (fun (key, attempt) ->
      let base = 0.05 *. (2. ** float_of_int (attempt - 2)) in
      let v = Xd_xrpc.Session.backoff_s ~key ~attempt in
      v >= base && v < 2. *. base
      && v = Xd_xrpc.Session.backoff_s ~key ~attempt)

let () =
  Alcotest.run "topo"
    [
      ("catalog", [ prop_catalog_oracle ]);
      ("forwarding", [ prop_forward_loop_free ]);
      ("equivalence", [ prop_par_seq_churn ]);
      ( "epoch",
        [
          prop_epoch_abort_untouched;
          tc "commit without churn" test_commit_without_churn;
        ] );
      ("backoff", [ tc "pinned schedule" test_backoff_pinned; prop_backoff_range ]);
    ]
