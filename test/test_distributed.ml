(* End-to-end distributed execution: for a catalog of queries over
   documents spread across peers, every strategy's decomposed execution
   must be deep-equal to the local reference semantics, and the cost
   ordering of the paper (Fig. 7) must hold. *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module V = Xd_lang.Value
open Util

let make_net () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  let b = Xd_xrpc.Network.new_peer net "peerB" in
  ignore
    (Xd_xrpc.Peer.load_xml a ~doc_name:"students.xml"
       {|<people>
           <person id="s1"><name>Ann</name><tutor>Bob</tutor><id>1</id><age>23</age></person>
           <person id="s2"><name>Bob</name><tutor>Zoe</tutor><id>2</id><age>35</age></person>
           <person id="s3"><name>Cyd</name><tutor>Ann</tutor><id>3</id><age>29</age></person>
         </people>|});
  ignore
    (Xd_xrpc.Peer.load_xml a ~doc_name:"extra.xml"
       {|<extra><person id="s9"><name>Zoe</name><id>9</id></person></extra>|});
  ignore
    (Xd_xrpc.Peer.load_xml b ~doc_name:"course.xml"
       {|<enroll>
           <exam id="1"><grade>A</grade><topic>db</topic></exam>
           <exam id="2"><grade>C</grade><topic>os</topic></exam>
           <exam id="4"><grade>B</grade><topic>ml</topic></exam>
         </enroll>|});
  ignore
    (Xd_xrpc.Peer.load_xml client ~doc_name:"local.xml"
       {|<conf><minage>25</minage><wanted>db</wanted></conf>|});
  (net, client)

(* The query catalog. Each entry: name, query. All are decomposable at
   least partially under some strategy, and all must stay semantically
   equivalent under every strategy. *)
let catalog =
  [
    ( "semijoin (Q2 shape)",
      {|(let $t := let $s := doc("xrpc://peerA/students.xml")/child::people/child::person
                   return for $x in $s return if ($x/child::tutor = $s/child::name) then $x else ()
         return for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
                return if ($e/attribute::id = $t/child::id) then $e else ())/child::grade|}
    );
    ( "selection pushdown",
      {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
        where $p/child::age < 30 return $p/child::name|} );
    ( "local + remote predicate",
      {|let $min := doc("local.xml")/child::conf/child::minage
        return for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
               where $p/child::age > $min return string($p/child::name)|} );
    ( "two peers, value join",
      {|for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
        where $e/child::topic = doc("local.xml")/child::conf/child::wanted
        return $e/child::grade|} );
    ( "aggregation",
      {|string(count(doc("xrpc://peerA/students.xml")/descendant::person) +
               count(doc("xrpc://peerB/course.xml")/descendant::exam))|} );
    ( "order by remote",
      {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
        order by $p/child::age descending return string($p/child::id)|} );
    ( "construction over remote data",
      {|element summary {
          for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
          return element row { attribute nm { string($p/child::name) } } }|} );
    ( "union across peers",
      {|string(count(doc("xrpc://peerA/students.xml")/descendant::person union
                     doc("xrpc://peerA/extra.xml")/descendant::person))|} );
    ( "same doc twice (one application)",
      {|let $d := doc("xrpc://peerA/students.xml")
        return string(count($d/descendant::person intersect $d/descendant::person))|}
    );
    ( "typeswitch over remote nodes",
      {|for $n in doc("xrpc://peerA/students.xml")/child::people/child::*
        return typeswitch ($n)
               case $p as element(person) return string($p/child::id)
               default $d return "?"|} );
    ( "nested flwor",
      {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
        return for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
               return if ($p/child::id = $e/attribute::id)
                      then concat(string($p/child::name), ":", string($e/child::grade))
                      else ()|} );
    ( "deep paths with descendant",
      {|string(count(doc("xrpc://peerA/students.xml")/descendant-or-self::node()))|}
    );
  ]

let test_equivalence (name, q_src) () =
  let q = Xd_lang.Parser.parse_query q_src in
  let net, client = make_net () in
  let reference = E.run_local net ~client q in
  List.iter
    (fun strat ->
      (* fresh network per strategy: stores stay clean *)
      let net, client = make_net () in
      let r = E.run net ~client strat q in
      if not (V.deep_equal r.E.value reference) then
        Alcotest.failf "%s under %s differs:\n  expected %s\n  got %s" name
          (S.to_string strat)
          (V.serialize reference)
          (V.serialize r.E.value))
    S.all

(* every strategy on the benchmark query ships fewer or equal bytes than
   the previous one (the Fig. 7 ordering) *)
let test_cost_ordering () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let p1 = Xd_xrpc.Network.new_peer net "peer1" in
  let p2 = Xd_xrpc.Network.new_peer net "peer2" in
  let _ =
    Xd_xmark.Generator.load_pair ~persons:60 ~people_peer:p1 ~auctions_peer:p2
      ~people_doc:"people.xml" ~auctions_doc:"auctions.xml" ()
  in
  let q =
    Xd_lang.Parser.parse_query
      {|(let $t := let $s := doc("xrpc://peer1/people.xml")/child::site/child::people/child::person
                   return for $x in $s return if ($x/descendant::age < 40) then $x else ()
         return for $e in (let $c := doc("xrpc://peer2/auctions.xml")
                           return $c/descendant::open_auction)
                return if ($e/child::seller/attribute::person = $t/attribute::id)
                       then $e/child::annotation else ())/child::author|}
  in
  let total strat =
    let r = E.run net ~client strat q in
    r.E.timing.E.message_bytes + r.E.timing.E.document_bytes
  in
  let ds = total S.Data_shipping in
  let bv = total S.By_value in
  let bf = total S.By_fragment in
  let bp = total S.By_projection in
  check_bool (Printf.sprintf "value(%d) < shipping(%d)" bv ds) (bv < ds);
  check_bool (Printf.sprintf "fragment(%d) < value(%d)" bf bv) (bf < bv);
  check_bool (Printf.sprintf "projection(%d) < fragment(%d)" bp bf) (bp < bf)

let test_breakdown_sums () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let p1 = Xd_xrpc.Network.new_peer net "peer1" in
  let p2 = Xd_xrpc.Network.new_peer net "peer2" in
  let _ =
    Xd_xmark.Generator.load_pair ~persons:30 ~people_peer:p1 ~auctions_peer:p2
      ~people_doc:"people.xml" ~auctions_doc:"auctions.xml" ()
  in
  let q =
    Xd_lang.Parser.parse_query
      {|for $p in doc("xrpc://peer1/people.xml")/child::site/child::people/child::person
        where $p/descendant::age < 30 return string($p/attribute::id)|}
  in
  let r = E.run net ~client S.By_fragment q in
  let t = r.E.timing in
  check_bool "components non-negative"
    (t.E.local_exec_s >= 0. && t.E.serialize_s >= 0. && t.E.shred_s >= 0.
   && t.E.remote_exec_s >= 0. && t.E.network_s >= 0.);
  check_bool "components bounded by wall"
    (t.E.serialize_s +. t.E.shred_s +. t.E.remote_exec_s
    <= t.E.wall_s +. 1e-6);
  check_bool "messages counted" (t.E.messages > 0)

(* ---- multi-peer topologies ------------------------------------------------- *)

(* a pushed body that references a document at a *third* peer: the server
   fetches it (nested data shipping) and the result is still correct *)
let test_three_peer_chain () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  let c = Xd_xrpc.Network.new_peer net "peerC" in
  ignore
    (Xd_xrpc.Peer.load_xml a ~doc_name:"orders.xml"
       {|<orders><order item="i1"/><order item="i2"/><order item="i1"/></orders>|});
  ignore
    (Xd_xrpc.Peer.load_xml c ~doc_name:"items.xml"
       {|<items><item id="i1"><price>10</price></item><item id="i2"><price>20</price></item></items>|});
  let q =
    Xd_lang.Parser.parse_query
      {|for $o in doc("xrpc://peerA/orders.xml")/child::orders/child::order
        for $i in doc("xrpc://peerC/items.xml")/child::items/child::item
        where $o/attribute::item = $i/attribute::id
        return $i/child::price|}
  in
  let reference = E.run_local net ~client q in
  check_int "reference size" 3 (List.length reference);
  List.iter
    (fun strat ->
      let r = E.run net ~client strat q in
      check_bool (S.to_string strat)
        (V.deep_equal r.E.value reference))
    S.all

(* explicit nested execute-at: the body executed at A itself calls B *)
let test_nested_execute_at () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  let b = Xd_xrpc.Network.new_peer net "peerB" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"a.xml" "<r><x>1</x></r>");
  ignore (Xd_xrpc.Peer.load_xml b ~doc_name:"b.xml" "<r><y>2</y></r>");
  let session = Xd_xrpc.Session.create net client Xd_xrpc.Message.By_fragment in
  let q =
    Xd_lang.Parser.parse_query
      {|execute at {"peerA"} function ()
        { let $x := doc("a.xml")/child::r/child::x
          let $y := execute at {"peerB"} function ()
                    { doc("b.xml")/child::r/child::y }
          return $x + $y }|}
  in
  let v = Xd_xrpc.Session.execute session q in
  check_string "nested call computes across three peers" "3"
    (V.serialize v)

(* execute at the peer's own name runs locally, without messages *)
let test_execute_at_self () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  ignore (Xd_xrpc.Peer.load_xml client ~doc_name:"d.xml" "<r><x>5</x></r>");
  let session = Xd_xrpc.Session.create net client Xd_xrpc.Message.By_value in
  let q =
    Xd_lang.Parser.parse_query
      {|execute at {"client"} function () { doc("d.xml")/child::r/child::x }|}
  in
  let v = Xd_xrpc.Session.execute session q in
  check_string "self call" "<x>5</x>" (V.serialize v);
  check_int "no messages" 0
    (Xd_xrpc.Stats.messages net.Xd_xrpc.Network.stats)

(* a computed host expression *)
let test_computed_host () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"d.xml" "<r>7</r>");
  let session = Xd_xrpc.Session.create net client Xd_xrpc.Message.By_fragment in
  let q =
    Xd_lang.Parser.parse_query
      {|let $h := concat("peer", "A")
        return execute at {$h} function () { string(doc("d.xml")/child::r) }|}
  in
  check_string "computed host" "7" (V.serialize (Xd_xrpc.Session.execute session q))

(* bulk off still yields correct results for identity-free queries *)
let test_bulk_off_equivalence () =
  let q =
    Xd_lang.Parser.parse_query
      {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
        where $p/child::age < 30 return string($p/child::name)|}
  in
  let net, client = make_net () in
  let reference = E.run_local net ~client q in
  let net, client = make_net () in
  let r = E.run ~bulk:false net ~client S.By_fragment q in
  check_bool "bulk-off equivalent on identity-free queries"
    (V.deep_equal r.E.value reference)

(* ---- cost model ------------------------------------------------------------- *)

let test_cost_model_ranking () =
  (* on the XMark benchmark the cost model's ranking must match the
     measured Fig. 7 ranking *)
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let p1 = Xd_xrpc.Network.new_peer net "peer1" in
  let p2 = Xd_xrpc.Network.new_peer net "peer2" in
  let _ =
    Xd_xmark.Generator.load_pair ~persons:80 ~people_peer:p1 ~auctions_peer:p2
      ~people_doc:"people.xml" ~auctions_doc:"auctions.xml" ()
  in
  let q =
    Xd_lang.Parser.parse_query
      {|(let $t := let $s := doc("xrpc://peer1/people.xml")/child::site/child::people/child::person
                   return for $x in $s return if ($x/descendant::age < 40) then $x else ()
         return for $e in (let $c := doc("xrpc://peer2/auctions.xml")
                           return $c/descendant::open_auction)
                return if ($e/child::seller/attribute::person = $t/attribute::id)
                       then $e/child::annotation else ())/child::author|}
  in
  let ranking_by f =
    List.sort (fun a b -> compare (f a) (f b)) S.all
  in
  let est = Xd_core.Cost.estimate_all net q in
  let est_of s =
    Xd_core.Cost.total
      (List.find (fun e -> e.Xd_core.Cost.strategy = s) est)
  in
  let measured s =
    let r = E.run net ~client s q in
    r.E.timing.E.message_bytes + r.E.timing.E.document_bytes
  in
  let measured_ranking = ranking_by measured in
  let estimated_ranking = ranking_by est_of in
  check_slist "cost model reproduces the measured ranking"
    (List.map S.to_string measured_ranking)
    (List.map S.to_string estimated_ranking);
  check_bool "choose picks the winner"
    (Xd_core.Cost.choose net q = List.hd measured_ranking)

let test_cost_model_tiny_docs () =
  (* for tiny documents, message overhead makes plain data shipping the
     cheapest — the model must see that too *)
  let net = Xd_xrpc.Network.create () in
  let _client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"tiny.xml" "<r><x>1</x></r>");
  let q =
    Xd_lang.Parser.parse_query
      {|string(doc("xrpc://peerA/tiny.xml")/child::r/child::x)|}
  in
  check_string "tiny documents: data shipping wins" "data-shipping"
    (S.to_string (Xd_core.Cost.choose net q))

let test_cost_model_updates_pinned () =
  let net = Xd_xrpc.Network.create () in
  let _ = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"d.xml" "<r><x/></r>");
  let q =
    Xd_lang.Parser.parse_query
      {|delete node doc("xrpc://peerA/d.xml")/child::r/child::x|}
  in
  check_bool "updating query pinned to function shipping"
    (Xd_core.Cost.choose net q <> S.Data_shipping)

let test_cost_model_sees_updates () =
  (* document sizes are memoised per document version: an update installs
     a new document, and the next estimate must price that one *)
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"d.xml" "<r><x>1</x></r>");
  let q =
    Xd_lang.Parser.parse_query
      {|count(doc("xrpc://peerA/d.xml")/child::r/child::x)|}
  in
  let fetched () =
    (Xd_core.Cost.estimate net (Xd_core.Decompose.decompose S.Data_shipping q))
      .Xd_core.Cost.fetched_bytes
  in
  let doc_bytes () =
    Xd_xml.Serializer.doc_bytes (Option.get (Xd_xrpc.Peer.find_doc a "d.xml"))
  in
  let before = fetched () in
  check_int "estimate prices the document" (doc_bytes ()) before;
  let long = String.make 500 'z' in
  ignore
    (E.run net ~client S.By_projection
       (Xd_lang.Parser.parse_query
          (Printf.sprintf
             {|replace value of node doc("xrpc://peerA/d.xml")/child::r/child::x with "%s"|}
             long)));
  check_int "estimate prices the updated document" (doc_bytes ()) (fetched ());
  check_int "the update grew the estimate" (before + 499) (fetched ())

let test_bulk_saves_bytes () =
  (* session caching (= bulk RPC wire behaviour) must reduce bytes on a
     loop-nested call that re-ships the same parameter *)
  let net, client = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|let $t := execute at {"peerA"} function ()
                  { doc("students.xml")/child::people/child::person }
        return for $e in (1, 2, 3)
               return execute at {"peerA"} function ($t := $t)
                      { count($t) + 0 }|}
  in
  let bytes bulk =
    let session =
      Xd_xrpc.Session.create ~bulk net client Xd_xrpc.Message.By_fragment
    in
    Xd_xrpc.Stats.reset net.Xd_xrpc.Network.stats;
    let _ = Xd_xrpc.Session.execute session q in
    Xd_xrpc.Stats.message_bytes net.Xd_xrpc.Network.stats
  in
  let with_bulk = bytes true in
  let without = bytes false in
  check_bool
    (Printf.sprintf "bulk %d < no-bulk %d" with_bulk without)
    (with_bulk < without)

let test_message_determinism () =
  (* the same query over the same data produces byte-identical traffic *)
  let run () =
    let net, client = make_net () in
    let record = ref [] in
    let q =
      Xd_lang.Parser.parse_query
        {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
          where $p/child::age < 30 return string($p/child::name)|}
    in
    let _ = E.run ~record net ~client S.By_projection q in
    List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record)
  in
  let m1 = run () and m2 = run () in
  check_int "same number of messages" (List.length m1) (List.length m2);
  (* identical up to document ids, which depend on global allocation order;
     normalize them away *)
  let strip s =
    String.concat "#"
      (List.filter
         (fun part -> not (String.length part > 0 && part.[0] >= '0' && part.[0] <= '9'))
         (String.split_on_char ':' s))
  in
  List.iter2
    (fun a b -> check_string "messages equal modulo ids" (strip a) (strip b))
    m1 m2

(* property: random selection thresholds keep all strategies equivalent *)
let prop_threshold_equivalence =
  qtest ~count:25 "equivalence for random selection thresholds"
    (QCheck.int_range 18 60) (fun threshold ->
      let q =
        Xd_lang.Parser.parse_query
          (Printf.sprintf
             {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
               where $p/child::age < %d return $p/child::name|}
             threshold)
      in
      let net, client = make_net () in
      let reference = E.run_local net ~client q in
      List.for_all
        (fun strat ->
          let net, client = make_net () in
          let r = E.run net ~client strat q in
          V.deep_equal r.E.value reference)
        S.all)

let () =
  Alcotest.run "xd_distributed"
    [
      ( "equivalence",
        List.map (fun (name, q) -> tc name (test_equivalence (name, q))) catalog
      );
      ( "costs",
        [ tc "Fig. 7 ordering" test_cost_ordering; tc "breakdown" test_breakdown_sums ] );
      ( "cost-model",
        [
          tc "ranking matches measurement" test_cost_model_ranking;
          tc "tiny docs" test_cost_model_tiny_docs;
          tc "updates pinned" test_cost_model_updates_pinned;
          tc "sizes follow updates" test_cost_model_sees_updates;
        ] );
      ( "topology",
        [
          tc "three-peer chain" test_three_peer_chain;
          tc "nested execute-at" test_nested_execute_at;
          tc "execute at self" test_execute_at_self;
          tc "computed host" test_computed_host;
          tc "bulk off" test_bulk_off_equivalence;
          tc "bulk saves bytes" test_bulk_saves_bytes;
          tc "message determinism" test_message_determinism;
        ] );
      ("properties", [ prop_threshold_equivalence ]);
    ]
