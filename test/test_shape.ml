(* Differential testing of the compiled wire-shape codecs.

   The codec contract (PROTOCOL.md, "Compiled codecs") is byte-identity:
   a session with compiled codecs installed puts *exactly* the same
   octets on the wire as one without, and computes the same value — the
   request writer is the same function whether it was compiled with the
   plan or when the call was sent, and the decoder is a strict
   specialization of the generic reader, never a second dialect. This suite drives that contract
   with random Gen_queries programs under every environment that bends
   the wire: fault injection, topology churn, overload shedding and
   distributed transactions.

   Alongside byte-identity: the writer against the generic writer it
   replaced, shape-descriptor soundness (a plain run of a compiled plan
   never takes the bailout path — the analysis never over-claims) and
   the verifier's tamper rejection (a descriptor the independent
   re-derivation cannot reproduce is a wire-shape error). *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module Shape = Xd_shape.Shape
open Util

let make_net = Gen_queries.make_net
let arb_query = Gen_queries.arb_query

(* the profile/trace suites use the same duplicated corpus: churn needs
   the moved document servable at both peers *)
let students_xml =
  {|<people>
      <person id="s1"><name>Ann</name><tutor>Bob</tutor><id>1</id><age>23</age></person>
      <person id="s2"><name>Bob</name><tutor>Zoe</tutor><id>2</id><age>35</age></person>
      <person id="s3"><name>Cyd</name><tutor>Ann</tutor><id>3</id><age>29</age></person>
      <person id="s4"><name>Dan</name><tutor>Cyd</tutor><id>4</id><age>41</age></person>
    </people>|}

(* One run of [q] with the codec on or off, capturing the exact wire.
   [env] mutates the fresh network before execution. [fault] is a thunk:
   Fault.t is stateful (per-rule limits, RNG position), so each run must
   get a fresh instance or the second run sees a different schedule. *)
let run_wire ?fault ?(env = fun _ -> ()) ?deadline ?txn ~codec q =
  let fault = Option.map (fun f -> f ()) fault in
  let net, client = make_net ?fault () in
  env net;
  let record = ref [] in
  match E.run ~record ?deadline ?txn ~codec net ~client S.By_value q with
  | r ->
    Ok
      ( Xd_lang.Value.serialize r.E.value,
        List.map (fun m -> m.Xd_xrpc.Session.text) (List.rev !record),
        r.E.timing )
  | exception exn -> Error (Printexc.to_string exn)

(* The property: same value, same wire, octet for octet — or the same
   failure. [check] sees the codec-on timing for extra assertions. *)
let differential ?fault ?env ?deadline ?txn ?(check = fun _ -> true) q =
  match
    ( run_wire ?fault ?env ?deadline ?txn ~codec:false q,
      run_wire ?fault ?env ?deadline ?txn ~codec:true q )
  with
  | Ok (v_gen, wire_gen, _), Ok (v_cod, wire_cod, t_cod) ->
    v_gen = v_cod && wire_gen = wire_cod && check t_cod
  | Error _, Error _ -> true (* both fail; fault schedules are seeded *)
  | Ok _, Error _ | Error _, Ok _ -> false

let fault_of spec seed =
  match Xd_xrpc.Fault.parse spec with
  | Ok s -> Xd_xrpc.Fault.create ~seed s
  | Error e -> failwith e

(* ---- byte identity, plain wire --------------------------------------------- *)

let prop_identity_plain =
  qtest ~count:250 "codec on/off: identical wire and value (plain)" arb_query
    (fun q ->
      differential q ~check:(fun t ->
          (* descriptor soundness: on a healthy wire a compiled call
             site never takes the bailout path — a bailout here means
             the analysis claimed a shape the runtime didn't have *)
          t.E.codec_bailouts = 0
          && t.E.codec_decodes <= t.E.calls
          && t.E.codec_compiled <= t.E.calls))

(* ---- byte identity under fault injection ----------------------------------- *)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 9999)

let arb_query_seed = QCheck.pair arb_query arb_seed

let prop_identity_faults =
  qtest ~count:250 "codec on/off: identical wire under faults"
    arb_query_seed (fun (q, seed) ->
      (* byte-identity makes the seeded fault schedule — which keys on
         (destination, length) — take the same decisions in both runs,
         so even the retry/dup traffic must match octet for octet *)
      differential
        ~fault:(fun () ->
          fault_of "drop@0.2#2;dup@0.15#1;truncate@0.1#1" seed)
        q)

(* ---- byte identity under topology churn ------------------------------------ *)

let arb_moves =
  QCheck.make
    ~print:(fun ms ->
      String.concat ";"
        (List.map (fun (n, b) -> Printf.sprintf "%d:%b" n b) ms))
    QCheck.Gen.(list_size (int_bound 4) (pair (int_bound 6) bool))

let churn_env moves net =
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

let prop_identity_churn =
  qtest ~count:150 "codec on/off: identical wire under churn"
    (QCheck.pair arb_query arb_moves) (fun (q, moves) ->
      (* forwards and failovers reshape the message flow, not the
         bytes of any one message: redirected requests must still be
         emitted identically by both writers *)
      differential ~env:(churn_env moves) q)

(* ---- byte identity under overload ------------------------------------------ *)

let overload_env net =
  Xd_xrpc.Network.set_overload net
    (Xd_xrpc.Overload.create ~capacity:1 ~queue_cap:4 ~service_s:0.001 ())

let prop_identity_overload =
  qtest ~count:150 "codec on/off: identical wire under overload"
    arb_query (fun q ->
      (* deadline stamps are fixed-width (%015.6f) so the compiled
         encoder's constant segments still line up; shedding decisions
         key on sim-clock arrival order, identical across the runs *)
      differential ~env:overload_env ~deadline:5.0 q)

(* ---- byte identity under distributed transactions -------------------------- *)

let prop_identity_txn =
  qtest ~count:100 "codec on/off: identical wire under txn" arb_query
    (fun q ->
      (* a txn-tagged response carries txn/staged, outside the compiled
         decoder's language: a call inside a transaction never tries
         the decoder, so nothing bails out *)
      differential ~txn:`Always q ~check:(fun t -> t.E.codec_bailouts = 0))

(* ---- the one writer against the old one ------------------------------------ *)

(* The compiled request writer against the generic writer it replaced
   (Request_oracle): byte for byte, under every passing semantics, for
   atomic, node and mixed parameters, module shipping, every per-call
   attribute and batch slots. Fragment planning records what each host
   already has, so the two writers run on twin endpoints of one peer,
   with twin module-shipping tables, through the same sequence of
   calls. *)

module M = Xd_xrpc.Message
module Value = Xd_lang.Value

(* Call sites, by template. *)
let templates =
  [|
    {|execute at {"H"} function () { 1 }|};
    {|execute at {"H"} function ($a := 1) { $a }|};
    {|execute at {"H"} function ($a := 1, $b := 2) { ($b, $a) }|};
    {|execute at {"H"} function ($s := "x") { concat($s, "<&>'") }|};
    {|execute at {"H"} function ($p := ()) { $p/child::name }|};
  |]

let exec_at src =
  match (Xd_lang.Parser.parse_query src).Xd_lang.Ast.body.Xd_lang.Ast.desc with
  | Xd_lang.Ast.Execute_at x -> x
  | _ -> failwith "not an execute-at"

let module_funcs =
  lazy
    (Xd_lang.Parser.parse_query
       {|declare function local:f($x) { $x + 1 };
         declare function local:g($y) { <a>{$y}</a> };
         1|})
      .Xd_lang.Ast.funcs

let paths = [| "."; "child::name"; "descendant::age"; "attribute::id"; "parent::node()"; "child::*/child::text()" |]

type item = Atom of Value.atom | Node of int

type wcall = {
  tpl : int;
  items : item list list;  (* per parameter *)
  drift : bool;  (* rename the last argument *)
  req_id : string option;
  txn : string option;
  epoch : int option;
  budget : float option;
  with_funcs : bool;
  host : string;
}

type step = Single of wcall | Batch of string * float option * string option * wcall list

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Integer i) small_signed_int;
        map (fun s -> Value.String s) (string_size ~gen:(oneofl [ 'a'; '<'; '&'; '"'; '>'; ' '; '\'' ]) (int_bound 6));
        map (fun b -> Value.Boolean b) bool;
        map (fun f -> Value.Double f) (float_bound_inclusive 100.);
        map (fun s -> Value.Untyped s) (oneofl [ ""; "u"; "&x;" ]);
      ])

let gen_items =
  QCheck.Gen.(
    list_size (int_bound 3)
      (frequency [ (2, map (fun a -> Atom a) gen_atom); (3, map (fun i -> Node i) (int_bound 1000)) ]))

let gen_wcall =
  QCheck.Gen.(
    let* tpl = int_bound (Array.length templates - 1) in
    let* items = list_size (int_bound 2) gen_items in
    let* drift = frequencyl [ (9, false); (1, true) ] in
    let* req_id = opt (map (Printf.sprintf "client:%d") (int_bound 99)) in
    let* txn = opt (oneofl [ "client-1"; "client-2" ]) in
    let* epoch = opt (int_bound 12) in
    let* budget = opt (float_bound_inclusive 1000.) in
    let* with_funcs = bool in
    let* host = oneofl [ "peerA"; "peerB" ] in
    return { tpl; items; drift; req_id; txn; epoch; budget; with_funcs; host })

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun c -> Single c) gen_wcall);
        ( 1,
          let* host = oneofl [ "peerA"; "peerB" ] in
          let* budget = opt (float_bound_inclusive 1000.) in
          let* txn = opt (oneofl [ "client-1"; "client-2" ]) in
          let* slots = list_size (int_range 2 3) gen_wcall in
          return (Batch (host, budget, txn, slots)) );
      ])

type case = {
  passing : M.passing;
  schema : bool;
  param_paths : (int * string list * string list) list;  (* by template *)
  result_paths : (int * string list * string list) list;
  steps : step list;
}

let gen_paths =
  QCheck.Gen.(
    list_size (int_bound 4)
      (triple
         (int_bound (Array.length templates - 1))
         (list_size (int_bound 2) (oneofa paths))
         (list_size (int_bound 2) (oneofa paths))))

let arb_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%s, %d steps, schema %b"
        (M.passing_to_string c.passing)
        (List.length c.steps) c.schema)
    QCheck.Gen.(
      let* passing = oneofl [ M.By_value; M.By_fragment; M.By_projection ] in
      let* schema = bool in
      let* param_paths = gen_paths in
      let* result_paths = gen_paths in
      let* steps = list_size (int_range 1 4) gen_step in
      return { passing; schema; param_paths; result_paths; steps })

let writer_net =
  lazy
    (let net, client = make_net () in
     let a = Xd_xrpc.Network.find_peer net "peerA" in
     let doc = Option.get (Xd_xrpc.Peer.find_doc a "students.xml") in
     (* the client's own nodes (constructed ones too) and nodes of a
        document it holds *)
     let local = Option.get (Xd_xrpc.Peer.find_doc client "local.xml") in
     let store = Xd_xrpc.Peer.store client in
     let nodes =
       Array.of_list
         (List.concat_map
            (fun n -> n :: Xd_xml.Node.attributes n)
            (Xd_xml.Node.descendant_or_self (Xd_xml.Node.doc_node local)
            @ Xd_xml.Node.descendant_or_self (Xd_xml.Node.doc_node doc))
         @ [
             Xd_lang.Construct.element store "c" [ Value.A (Value.String "t") ];
             Xd_lang.Construct.text store "t";
             Xd_lang.Construct.attribute store "k" "v";
           ])
     in
     (client, nodes))

let prop_writer_matches_oracle =
  qtest ~count:1000 "compiled writer = the old generic writer, byte for byte"
    arb_case (fun c ->
      let client, nodes = Lazy.force writer_net in
      let schema =
        if c.schema then
          Some (function "person" -> [ "name" ] | "exam" -> [ "grade" ] | _ -> [])
        else None
      in
      let xs =
        Array.mapi
          (fun i src ->
            let x = exec_at src in
            List.iter
              (fun (t, u, r) ->
                if t = i then
                  match x.Xd_lang.Ast.params with
                  | (v, _) :: _ -> x.Xd_lang.Ast.param_paths <- [ (v, u, r) ]
                  | [] -> ())
              c.param_paths;
            List.iter
              (fun (t, u, r) -> if t = i then x.Xd_lang.Ast.result_paths <- (u, r))
              c.result_paths;
            x)
          templates
      in
      let writers =
        Array.map (M.compile_request ~passing:c.passing ~caller:"client") xs
      in
      let ep_new = M.make_endpoint client and ep_old = M.make_endpoint client in
      let shipped_new = Hashtbl.create 4 and shipped_old = Hashtbl.create 4 in
      let oracle budget =
        {
          Request_oracle.passing = c.passing;
          caller = "client";
          schema;
          funcs_shipped = shipped_old;
          budget;
        }
      in
      let args_of (w : wcall) =
        let value items =
          List.map
            (function
              | Atom a -> Value.A a
              | Node i -> Value.N nodes.(i mod Array.length nodes))
            items
        in
        let params = List.map fst xs.(w.tpl).Xd_lang.Ast.params in
        let args =
          List.mapi
            (fun i v ->
              (v, value (Option.value ~default:[] (List.nth_opt w.items i))))
            params
        in
        if w.drift then
          List.mapi (fun i (v, value) ->
              if i = List.length args - 1 then (v ^ "z", value) else (v, value))
            args
        else args
      in
      let funcs (w : wcall) = if w.with_funcs then Lazy.force module_funcs else [] in
      let module_for ~host fs =
        match fs with
        | [] -> None
        | _ when Hashtbl.mem shipped_new host -> None
        | _ ->
          Hashtbl.replace shipped_new host ();
          Some fs
      in
      (* a batch ships the module of its first member, as the
         scheduler's envelope does *)
      let batch_funcs = function w :: _ -> funcs w | [] -> [] in
      let call ~host ?txn ?(fs = []) (w : wcall) ~in_batch =
        {
          M.args = args_of w;
          funcs = module_for ~host (if in_batch then fs else funcs w);
          req_id = (if in_batch then None else w.req_id);
          txn = (if in_batch then txn else w.txn);
          epoch = (if in_batch then None else w.epoch);
        }
      in
      (* the writer's deadline offset points at the value it stamped *)
      let stamped budget (o : M.outgoing) =
        match (budget, o.M.deadline_at) with
        | None, None -> true
        | Some b, Some at -> String.sub o.M.text at 15 = M.deadline_value b
        | _ -> false
      in
      let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      List.for_all
        (fun step ->
          let fresh, old =
            match step with
            | Single w ->
              ( attempt (fun () ->
                    let o =
                      M.write_request writers.(w.tpl) ep_new ~host:w.host ?schema
                        ?deadline:w.budget
                        (call ~host:w.host w ~in_batch:false)
                    in
                    (stamped w.budget o, o.M.text)),
                attempt (fun () ->
                    ( true,
                      Request_oracle.build_request (oracle w.budget) ~ep:ep_old
                        ~host:w.host ?req_id:w.req_id ?txn:w.txn ?epoch:w.epoch
                        xs.(w.tpl) ~args:(args_of w) ~funcs:(funcs w) )) )
            | Batch (host, budget, txn, slots) ->
              ( attempt (fun () ->
                    let o =
                      M.write_batch ~caller:"client" ep_new ~host ?schema
                        ?deadline:budget
                        (List.map
                           (fun w ->
                             ( writers.(w.tpl),
                               call ~host ?txn ~fs:(batch_funcs slots) w
                                 ~in_batch:true ))
                           slots)
                    in
                    (stamped budget o, o.M.text)),
                attempt (fun () ->
                    ( true,
                      Request_oracle.build_batch (oracle budget) ~ep:ep_old ~host
                        ?txn
                        (List.map (fun w -> (xs.(w.tpl), args_of w)) slots)
                        ~funcs:(batch_funcs slots) )) )
          in
          fresh = old)
        c.steps)

(* ---- descriptor soundness and verifier tamper rejection -------------------- *)

let plan_of q = Xd_core.Decompose.decompose S.By_value q

let prop_analysis_deterministic =
  qtest ~count:60 "shape analysis is deterministic" arb_query (fun q ->
      let p = plan_of q in
      let d1 = (Shape.analyze p.Xd_core.Decompose.query).Shape.descriptors in
      let d2 = (Shape.analyze p.Xd_core.Decompose.query).Shape.descriptors in
      List.length d1 = List.length d2
      && List.for_all2 Shape.descriptor_equal d1 d2)

let prop_verifier_rejects_tampered =
  qtest ~count:150 "verifier rejects tampered descriptors" arb_query
    (fun q ->
      let p = plan_of q in
      let sres = Shape.analyze p.Xd_core.Decompose.query in
      match sres.Shape.descriptors with
      | [] -> QCheck.assume_fail () (* no call sites to tamper with *)
      | d :: rest ->
        let net, client = make_net () in
        ignore net;
        (* the honest descriptors pass... *)
        let honest =
          E.verify_plan ~shapes:sres.Shape.descriptors ~client p
        in
        (* ...and a lie about the execution host must be caught by the
           independent re-derivation (any field disagreement rejects) *)
        let tampered =
          {
            d with
            Shape.host =
              (match d.Shape.host with
              | Some h -> Some (h ^ "-tampered")
              | None -> Some "tampered");
          }
        in
        let report = E.verify_plan ~shapes:(tampered :: rest) ~client p in
        Xd_verify.Verify.ok honest && not (Xd_verify.Verify.ok report))

let () =
  Alcotest.run "xd_shape"
    [
      ( "byte-identity",
        [
          prop_identity_plain;
          prop_identity_faults;
          prop_identity_churn;
          prop_identity_overload;
          prop_identity_txn;
        ] );
      ("writer", [ prop_writer_matches_oracle ]);
      ( "descriptors",
        [ prop_analysis_deterministic; prop_verifier_rejects_tampered ] );
    ]
