(* Failure-injection tests for the XRPC runtime: unknown peers, missing
   documents, nesting limits, evaluation failures crossing the wire, and
   accounting invariants under errors. *)

module M = Xd_xrpc.Message
module V = Xd_lang.Value
open Util

let setup () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let server = Xd_xrpc.Network.new_peer net "srv" in
  (net, client, server)

let exec ?(passing = M.By_fragment) net client q =
  let session = Xd_xrpc.Session.create net client passing in
  Xd_xrpc.Session.execute session (Xd_lang.Parser.parse_query q)

let fails_dynamic f =
  match f () with exception Xd_lang.Env.Dynamic_error _ -> true | _ -> false

let astr_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A server-side error must arrive as a parsed <env:Fault>, re-raised as
   the typed exception — never a leaked native exception. *)
let fails_fault code f =
  match f () with
  | exception M.Xrpc_fault fl -> fl.code = code
  | _ -> false

let test_unknown_peer () =
  let net, client, _ = setup () in
  (* these fail at the *client*, before any message exists: they stay
     plain dynamic errors *)
  check_bool "execute at unknown peer"
    (fails_dynamic (fun () ->
         exec net client {|execute at {"nowhere"} function () { 1 }|}));
  check_bool "doc at unknown peer"
    (fails_dynamic (fun () ->
         exec net client {|doc("xrpc://nowhere/d.xml")|}))

let test_missing_remote_doc () =
  let net, client, _ = setup () in
  check_bool "missing doc via data shipping"
    (fails_dynamic (fun () -> exec net client {|doc("xrpc://srv/ghost.xml")|}));
  check_bool "missing doc inside remote body"
    (fails_fault M.App_dynamic (fun () ->
         exec net client
           {|execute at {"srv"} function () { doc("ghost.xml") }|}))

let test_remote_evaluation_error_propagates () =
  let net, client, _ = setup () in
  check_bool "remote dynamic error surfaces as a typed fault"
    (fails_fault M.App_dynamic (fun () ->
         exec net client {|execute at {"srv"} function () { $unbound }|}))

let test_nesting_limit () =
  (* a remote body that calls itself on the same host recurses through
     server sessions; the depth guard must stop it *)
  let net, client, server = setup () in
  ignore server;
  check_bool "nesting depth guard"
    (fails_fault M.App_dynamic (fun () ->
         exec net client
           {|declare function ping($n) {
               execute at {"srv"} function ($n := $n) { ping($n + 1) } };
             ping(0)|}))

(* The raw response on the wire for a failing body really is a SOAP
   <env:Fault> envelope, with the taxonomy code in env:Subcode and the
   reason under env:Reason/env:Text. *)
let test_fault_envelope_on_wire () =
  let net, client, _ = setup () in
  let record = ref [] in
  let session = Xd_xrpc.Session.create ~record net client M.By_fragment in
  (match
     Xd_xrpc.Session.execute session
       (Xd_lang.Parser.parse_query
          {|execute at {"srv"} function () { $unbound }|})
   with
  | exception M.Xrpc_fault { host; code; reason } ->
    check_string "fault host" "srv" host;
    check_bool "fault code" (code = M.App_dynamic);
    check_bool "fault reason mentions the variable"
      (astr_contains reason "unbound")
  | _ -> Alcotest.fail "expected Xrpc_fault");
  let responses =
    List.filter_map
      (fun r ->
        match r.Xd_xrpc.Session.dir with
        | `Response t -> Some t
        | `Request _ -> None)
      (List.rev !record)
  in
  match responses with
  | [ resp ] ->
    check_bool "wire response is an envelope"
      (astr_contains resp "<env:Envelope");
    check_bool "wire response is a fault" (astr_contains resp "<env:Fault>");
    check_bool "wire response carries the subcode"
      (astr_contains resp "xrpc:app.dynamic-error");
    let root = X.Node.doc_node (X.Parser.parse_doc ~strip_ws:false resp) in
    let find n name =
      List.find_opt
        (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
        (X.Node.children n)
    in
    (match
       Option.bind
         (Option.bind (find root "env:Envelope") (fun b -> find b "env:Body"))
         (fun b -> find b "env:Fault")
     with
    | Some f ->
      let code, reason = M.parse_fault f in
      check_bool "parsed code" (code = M.App_dynamic);
      check_bool "parsed reason" (astr_contains reason "unbound")
    | None -> Alcotest.fail "no parsable <env:Fault> in the response")
  | rs ->
    Alcotest.failf "expected exactly one recorded response, got %d"
      (List.length rs)

let test_accounting_on_success () =
  let net, client, server = setup () in
  ignore (Xd_xrpc.Peer.load_xml server ~doc_name:"d.xml" "<r><x>7</x></r>");
  let v = exec net client {|execute at {"srv"} function () { string(doc("d.xml")/child::r/child::x) }|} in
  check_string "result" "7" (V.serialize v);
  let st = net.Xd_xrpc.Network.stats in
  check_int "one exchange" 2 Xd_xrpc.Stats.(count st messages);
  check_bool "bytes counted" Xd_xrpc.Stats.(count st message_bytes > 0);
  check_bool "simulated time positive"
    Xd_xrpc.Stats.(seconds st network_s > 0.)

let test_empty_results_roundtrip () =
  let net, client, _ = setup () in
  List.iter
    (fun passing ->
      let v = exec ~passing net client {|execute at {"srv"} function () { () }|} in
      check_int (M.passing_to_string passing ^ " empty") 0 (List.length v))
    [ M.By_value; M.By_fragment; M.By_projection ]

let test_mixed_result_roundtrip () =
  let net, client, server = setup () in
  ignore (Xd_xrpc.Peer.load_xml server ~doc_name:"d.xml" "<r><x>7</x></r>");
  List.iter
    (fun passing ->
      let v =
        exec ~passing net client
          {|execute at {"srv"} function ()
            { (1, doc("d.xml")/child::r/child::x, "s", 2.5, true()) }|}
      in
      check_string
        (M.passing_to_string passing ^ " mixed sequence")
        "1<x>7</x>s 2.5 true" (V.serialize v))
    [ M.By_value; M.By_fragment; M.By_projection ]

let test_large_atom_roundtrip () =
  let net, client, _ = setup () in
  let big = String.make 50_000 'z' in
  let v =
    exec net client
      (Printf.sprintf
         {|execute at {"srv"} function ($s := "%s") { string-length($s) }|}
         big)
  in
  check_string "50k-char string survives" "50000" (V.serialize v)

let test_special_chars_in_params () =
  let net, client, _ = setup () in
  List.iter
    (fun passing ->
      let v =
        exec ~passing net client
          {|execute at {"srv"} function ($s := "a<b>&amp;'c""d") { $s }|}
      in
      check_string
        (M.passing_to_string passing ^ " special chars")
        "a<b>&amp;'c\"d" (V.serialize v))
    [ M.By_value; M.By_fragment; M.By_projection ]

let test_fetch_cached_per_session () =
  let net, client, server = setup () in
  ignore (Xd_xrpc.Peer.load_xml server ~doc_name:"d.xml" "<r><x/></r>");
  let session = Xd_xrpc.Session.create net client M.By_fragment in
  let q =
    Xd_lang.Parser.parse_query
      {|(count(doc("xrpc://srv/d.xml")//node()), count(doc("xrpc://srv/d.xml")//node()))|}
  in
  let _ = Xd_xrpc.Session.execute session q in
  check_int "document fetched once per session" 1
    (Xd_xrpc.Stats.documents_fetched net.Xd_xrpc.Network.stats)

let () =
  Alcotest.run "xd_xrpc_errors"
    [
      ( "failures",
        [
          tc "unknown peer" test_unknown_peer;
          tc "missing document" test_missing_remote_doc;
          tc "remote error propagates" test_remote_evaluation_error_propagates;
          tc "nesting limit" test_nesting_limit;
          tc "fault envelope on the wire" test_fault_envelope_on_wire;
        ] );
      ( "roundtrips",
        [
          tc "accounting" test_accounting_on_success;
          tc "empty results" test_empty_results_roundtrip;
          tc "mixed sequences" test_mixed_result_roundtrip;
          tc "large atoms" test_large_atom_roundtrip;
          tc "special characters" test_special_chars_in_params;
          tc "fetch caching" test_fetch_cached_per_session;
        ] );
    ]
