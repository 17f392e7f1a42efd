(* The plan cache: Parser.parse_query, Decompose.decompose and the
   Executor.run_plan prelude each return their earlier result when their
   input repeats (DESIGN.md, "Plan cache"). A cached run must be
   indistinguishable from an uncached one: same value, same octets on
   the wire, same Stats, same stores afterwards. The cache must also
   never outlive what it depends on — a catalog change re-verifies, a
   rejected plan is refused on every run, a text seen once is not kept,
   and a plan never shares a mutable execute-at record with the parse
   tree its memo entry hangs off. *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module D = Xd_core.Decompose
module C = Xd_topo.Catalog
module Ast = Xd_lang.Ast
module P = Xd_lang.Parser
open Util

let make_net = Gen_queries.make_net
let pp_query = Xd_lang.Pp.query_to_string

(* ---- one run, everything observable ------------------------------------- *)

(* The timing record without its wall-clock buckets: what is left is the
   Stats view (counts, bytes, simulated time). Byte counts and the
   simulated times derived from them are left out as well: document ids
   come from a process-wide counter, so two runs on two fresh networks
   write ids of different lengths into the same messages. [run] checks
   instead that the counted bytes are exactly the bytes on the wire, and
   the wires are compared with the ids renumbered. *)
let counts (t : E.timing) =
  {
    t with
    E.wall_s = 0.;
    local_exec_s = 0.;
    serialize_s = 0.;
    shred_s = 0.;
    remote_exec_s = 0.;
    message_bytes = 0;
    network_s = 0.;
    sched_saved_s = 0.;
  }

let world_state net =
  List.map
    (fun (host, name) ->
      let peer = Xd_xrpc.Network.find_peer net host in
      Xd_xml.Serializer.doc (Option.get (Xd_xrpc.Peer.find_doc peer name)))
    [ ("peerA", "students.xml"); ("peerB", "course.xml"); ("client", "local.xml") ]

(* Renumber document ids (in fragment origin keys and node references)
   by first appearance, so that two runs' wires compare. *)
let canonical_wire msgs =
  let ids = Hashtbl.create 8 in
  let canon d =
    match Hashtbl.find_opt ids d with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids d i;
      i
  in
  let markers = [ {|okey="|}; {| o="L:|}; {| o="R:|} ] in
  let rewrite s =
    let n = String.length s in
    let b = Buffer.create n in
    let rec go i =
      if i < n then
        match
          List.find_opt
            (fun m ->
              i + String.length m <= n && String.sub s i (String.length m) = m)
            markers
        with
        | Some m ->
          let k = i + String.length m in
          let j = ref k in
          while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
            incr j
          done;
          Buffer.add_string b m;
          Buffer.add_string b
            (Printf.sprintf "#%d" (canon (String.sub s k (!j - k))));
          go !j
        | None ->
          Buffer.add_char b s.[i];
          go (i + 1)
    in
    go 0;
    Buffer.contents b
  in
  List.map rewrite msgs

type outcome =
  | Ran of string * string list * E.timing * string list
      (** value, wire, counts, stores after *)
  | Failed of string  (** the exception's constructor *)
  | Miscounted  (** Stats' message bytes are not the bytes on the wire *)

(* Decompose [q] and run the plan on a fresh network. Errors compare by
   constructor only: their messages may name vertex ids, which differ
   between two parses of one text. *)
let run ?(codec = true) ?(parallel = true) strategy q =
  let net, client = make_net () in
  let record = ref [] in
  match
    let plan = D.decompose strategy q in
    E.run_plan ~record ~codec ~parallel net ~client plan
  with
  | r ->
    let wire = List.rev_map (fun m -> m.Xd_xrpc.Session.text) !record in
    let on_wire = List.fold_left (fun n m -> n + String.length m) 0 wire in
    if r.E.timing.E.message_bytes <> on_wire then Miscounted
    else
      Ran
        ( Xd_lang.Value.serialize r.E.value,
          canonical_wire wire,
          counts r.E.timing,
          world_state net )
  | exception e -> Failed (Printexc.exn_slot_name e)

(* ---- texts ------------------------------------------------------------------ *)

(* updates beside the generated reads, so that stores after a run are
   compared too: a two-site replace (2PC), a single-site delete, and a
   two-site insert *)
let gen_update =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun v ->
          Printf.sprintf
            {|(replace value of node doc("xrpc://peerA/students.xml")/child::people/child::person[attribute::id = "s%d"]/child::name with "n%d",
               replace value of node doc("xrpc://peerB/course.xml")/child::enroll/child::exam[attribute::id = "1"]/child::grade with "g%d")|}
            (1 + (v mod 4)) v v)
        (int_bound 99);
      map
        (fun k ->
          Printf.sprintf
            {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
              return (if (($p/child::age < %d)) then (delete node $p) else ())|}
            k)
        (int_range 20 45);
      map
        (fun v ->
          Printf.sprintf
            {|(insert node <flag>%d</flag> into doc("xrpc://peerA/students.xml")/child::people,
               insert node <flag>%d</flag> into doc("xrpc://peerB/course.xml")/child::enroll)|}
            v v)
        (int_bound 99);
    ]

let gen_text =
  QCheck.Gen.(
    frequency [ (4, map pp_query Gen_queries.gen_query); (1, gen_update) ])

let arb_text_strategy =
  QCheck.make
    ~print:(fun (t, s) -> S.to_string s ^ ": " ^ t)
    QCheck.Gen.(pair gen_text (oneofl S.all))

(* Parse until the memo hands back the same AST twice: a text is kept
   from its second sighting, so the third parse is a hit. *)
let cached_ast text =
  let _first = P.parse_query text in
  let second = P.parse_query text in
  let third = P.parse_query text in
  if third != second then Alcotest.fail "third sighting missed the parse memo";
  third

(* ---- properties --------------------------------------------------------------- *)

(* A text's third run hits every memo: its first parse leaves a digest,
   the second is kept (and decomposed and verified afresh), the third
   gets that AST, plan and prelude back. A whitespace variant of the text
   is a first sighting and misses them all. All runs must agree. *)
let prop_hit_equals_miss =
  qtest ~count:400 "third run (hit) = first sighting of a variant (miss)"
    arb_text_strategy (fun (text, strategy) ->
      let runs =
        List.init 3 (fun _ ->
            let ast = P.parse_query text in
            (ast, run strategy ast))
      in
      let variant = P.parse_query ("\n " ^ text ^ " ") in
      match runs with
      | [ (_, first); (second, _); (third, hit) ] ->
        third == second && variant != third
        && hit = run strategy variant
        && hit = first
      | _ -> false)

(* One cached text under a random sequence of strategies and codec /
   parallel flags: each run matches a run from a parse no memo has seen. *)
let prop_interleaved_flags =
  let arb =
    QCheck.make
      ~print:(fun (q, cfgs) ->
        pp_query q ^ " under "
        ^ String.concat ", "
            (List.map
               (fun (s, c, p) -> Printf.sprintf "%s/%b/%b" (S.to_string s) c p)
               cfgs))
      QCheck.Gen.(
        pair Gen_queries.gen_query
          (list_size (int_range 2 6) (triple (oneofl S.all) bool bool)))
  in
  qtest ~count:250 "one text across strategies and codec/parallel flags" arb
    (fun (q, cfgs) ->
      let text = pp_query q in
      let ast = cached_ast text in
      List.for_all
        (fun (strategy, codec, parallel) ->
          let fresh = { Ast.funcs = []; body = P.parse_expr_string text } in
          run ~codec ~parallel strategy ast
          = run ~codec ~parallel strategy fresh)
        cfgs)

(* A hand plan reading a bare document name in a body shipped to peerA:
   the verifier accepts it exactly when the catalog says peerA serves
   that document. [register] moves placement without bumping the epoch,
   so a cache keyed on the epoch alone would keep a stale verdict. *)
let bare_name_plan =
  {|execute at {"peerA"} function ()
      { count(doc("students.xml")/child::people/child::person) }|}

type cat_op = Register of string * string | Move of string * string | Down of string

let arb_cat_ops =
  let open QCheck.Gen in
  let doc = oneofl [ "students.xml"; "course.xml" ] in
  let peer = oneofl [ "peerA"; "peerB" ] in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Register (d, o) -> "register " ^ d ^ "/" ^ o
             | Move (d, o) -> "move " ^ d ^ "/" ^ o
             | Down p -> "down " ^ p)
           ops))
    (list_size (int_range 1 8)
       (frequency
          [
            (3, map2 (fun d o -> Register (d, o)) doc peer);
            (3, map2 (fun d o -> Move (d, o)) doc peer);
            (1, map (fun p -> Down p) peer);
          ]))

let prop_catalog_reverifies =
  qtest ~count:150 "a catalog register/move re-verifies the cached plan"
    arb_cat_ops (fun ops ->
      let plan = D.plan_of_query S.By_fragment (cached_ast bare_name_plan) in
      let net, client = make_net () in
      let cat = C.create () in
      Xd_xrpc.Network.set_catalog net cat;
      List.for_all
        (fun op ->
          (match op with
          | Register (doc, owner) -> C.register cat ~doc ~owner ()
          | Move (doc, owner) -> C.move cat ~doc ~owner
          | Down p -> C.mark_down cat p);
          let expect_ok =
            Xd_verify.Verify.ok (E.verify_plan ~catalog:cat ~client plan)
          in
          match E.run_plan net ~client plan with
          | _ -> expect_ok
          | exception E.Plan_rejected _ -> not expect_ok
          | exception _ -> expect_ok (* verified, then failed at run time *))
        ops)

(* an execute-at result navigated with parent:: under pass-by-value *)
let rejected_plan =
  {|count((execute at {"peerA"} function () {
      doc("xrpc://peerA/students.xml")/child::people/child::person
    })/parent::people)|}

let prop_rejected_every_run =
  qtest ~count:100 "a rejected plan is refused on every run"
    QCheck.(list_of_size Gen.(int_range 2 6) bool)
    (fun forces ->
      let plan = D.plan_of_query S.By_value (cached_ast rejected_plan) in
      let net, client = make_net () in
      List.for_all
        (fun force ->
          match E.run_plan ~force net ~client plan with
          | r -> force && Xd_lang.Value.serialize r.E.value = "0"
          | exception E.Plan_rejected r ->
            (not force) && not (Xd_verify.Verify.ok r))
        forces)

(* texts that never repeat are remembered only as digests *)
let unique = ref 0

let prop_unique_texts_not_kept =
  qtest ~count:100 "never-repeated texts leave the memo size unchanged"
    QCheck.(list_of_size Gen.(int_range 1 20) Gen_queries.arb_query)
    (fun qs ->
      let before = P.memo_size () in
      List.iter
        (fun q ->
          incr unique;
          ignore
            (P.parse_query (Printf.sprintf "(%s, \"u%d\")" (pp_query q) !unique)))
        qs;
      P.memo_size () = before)

let execute_ats (q : Ast.query) =
  List.fold_left
    (fun acc (e : Ast.expr) ->
      Ast.fold
        (fun acc (e : Ast.expr) ->
          match e.Ast.desc with Ast.Execute_at x -> x :: acc | _ -> acc)
        acc e)
    []
    (q.Ast.body :: List.map (fun f -> f.Ast.f_body) q.Ast.funcs)

(* Decompose fills projection paths into the plan's execute-at records;
   were one of them the parse tree's own, the fill would write into the
   memoised AST. Some texts carry hand-written execute-at calls. *)
let prop_no_shared_execute_at =
  let gen =
    QCheck.Gen.(
      map pp_query Gen_queries.gen_query >>= fun t ->
      oneofl
        [
          t;
          Printf.sprintf {|execute at {"peerA"} function () { %s }|} t;
          Printf.sprintf
            {|let $x := execute at {"peerB"} function () { count(doc("xrpc://peerB/course.xml")/child::enroll/child::exam) } return (%s, $x)|}
            t;
        ])
  in
  qtest ~count:200 "a plan shares no execute-at record with its parse AST"
    (QCheck.make ~print:Fun.id gen) (fun text ->
      let ast = cached_ast text in
      let mine = execute_ats ast in
      List.for_all
        (fun strategy ->
          match D.decompose strategy ast with
          | plan ->
            List.for_all
              (fun x -> not (List.memq x mine))
              (execute_ats plan.D.query)
          | exception _ -> true)
        S.all)

(* ---- scenarios -------------------------------------------------------------- *)

let test_hits_are_shared () =
  let text = {|count(doc("xrpc://peerA/students.xml")/child::people/child::person)|} in
  let ast = cached_ast text in
  let plan = D.decompose S.By_projection ast in
  check_bool "same AST, same plan" (D.decompose S.By_projection ast == plan);
  check_bool "another strategy, another plan"
    (D.decompose S.By_value ast != plan);
  check_bool "a structurally equal query is not the same key"
    (D.decompose S.By_projection { ast with Ast.body = ast.Ast.body } != plan)

(* a caller that rewrites a plan's projection paths in place only loses
   its entries: decompose recomputes, and the prelude is re-verified *)
let test_tampered_plan_recomputed () =
  let text =
    {|count((execute at {"peerA"} function ()
        { doc("xrpc://peerA/students.xml")/child::people/child::person })/child::name)|}
  in
  let ast = cached_ast text in
  let plan = D.decompose S.By_projection ast in
  let net, client = make_net () in
  check_string "the plan runs" "4"
    (Xd_lang.Value.serialize (E.run_plan net ~client plan).E.value);
  let filled =
    List.filter (fun x -> x.Ast.result_paths <> ([], [])) (execute_ats plan.D.query)
  in
  check_bool "a filled execute-at to tamper with" (filled <> []);
  List.iter (fun x -> x.Ast.result_paths <- ([ "child::bogus" ], [])) filled;
  check_bool "tampered plan not reused" (D.decompose S.By_projection ast != plan);
  check_bool "the tampered plan is re-verified and refused"
    (match E.run_plan net ~client plan with
    | _ -> false
    | exception E.Plan_rejected _ -> true)

let test_memo_bounded () =
  for i = 1 to 600 do
    let text = Printf.sprintf "(%d, %d)" i i in
    ignore (P.parse_query text);
    ignore (P.parse_query text)
  done;
  check_bool "the memo never exceeds its bound" (P.memo_size () <= 256);
  check_bool "and holds recent texts"
    (P.parse_query "(600, 600)" == P.parse_query "(600, 600)")

let () =
  Alcotest.run "xd_plan_cache"
    [
      ( "properties",
        [
          prop_hit_equals_miss;
          prop_interleaved_flags;
          prop_catalog_reverifies;
          prop_rejected_every_run;
          prop_unique_texts_not_kept;
          prop_no_shared_execute_at;
        ] );
      ( "scenarios",
        [
          tc "hits are physically shared" test_hits_are_shared;
          tc "a tampered plan is recomputed" test_tampered_plan_recomputed;
          tc "the parse memo is bounded" test_memo_bounded;
        ] );
    ]
