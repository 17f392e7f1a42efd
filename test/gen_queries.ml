(* Shared random-query generator and fixed distributed database for the
   end-to-end property suites (test_random, test_verify).

   The generator deliberately produces queries with reverse and
   horizontal axes, node identity tests, node-set operations, repeated
   doc() applications and order-sensitive constructs — precisely the
   shapes the insertion conditions (and the plan verifier re-deriving
   them) exist to protect.

   Node-set expressions are kept single-source (each nodeseq subtree
   draws from one document): relative order between *different* documents
   is implementation-defined in XQuery, so cross-document unions may
   legitimately order differently between runs — single-source queries
   must agree exactly. *)

module Ast = Xd_lang.Ast

let sources =
  [|
    ("xrpc://peerA/students.xml", [| "people"; "person"; "name"; "tutor"; "id"; "age" |]);
    ("xrpc://peerB/course.xml", [| "enroll"; "exam"; "grade"; "topic" |]);
    ("local.xml", [| "conf"; "minage"; "wanted" |]);
  |]

(* The texts keep the whitespace they always had: it is part of the
   documents' string values and of the bytes the suites pin. *)
let students_xml =
  {|<people>
           <person id="s1"><name>Ann</name><tutor>Bob</tutor><id>1</id><age>23</age></person>
           <person id="s2"><name>Bob</name><tutor>Zoe</tutor><id>2</id><age>35</age></person>
           <person id="s3"><name>Cyd</name><tutor>Ann</tutor><id>3</id><age>29</age></person>
           <person id="s4"><name>Dan</name><tutor>Cyd</tutor><id>4</id><age>41</age></person>
         </people>|}

let course_xml =
  {|<enroll>
           <exam id="1"><grade>A</grade><topic>db</topic></exam>
           <exam id="2"><grade>C</grade><topic>os</topic></exam>
           <exam id="4"><grade>B</grade><topic>ml</topic></exam>
         </enroll>|}

let local_xml = {|<conf><minage>25</minage><wanted>db</wanted></conf>|}

(* The same three documents under the URIs [sources] names them by, for
   a single local store. *)
let documents =
  [
    ("xrpc://peerA/students.xml", students_xml);
    ("xrpc://peerB/course.xml", course_xml);
    ("local.xml", local_xml);
  ]

let make_net ?fault ?journal_dir () =
  let net = Xd_xrpc.Network.create ?fault ?journal_dir () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  let b = Xd_xrpc.Network.new_peer net "peerB" in
  ignore (Xd_xrpc.Peer.load_xml a ~doc_name:"students.xml" students_xml);
  ignore (Xd_xrpc.Peer.load_xml b ~doc_name:"course.xml" course_xml);
  ignore (Xd_xrpc.Peer.load_xml client ~doc_name:"local.xml" local_xml);
  (net, client)

(* ---- generator --------------------------------------------------------- *)

open QCheck.Gen

(* Delay construction of a sub-generator until the surrounding generator
   actually runs.  [frequency] builds every branch eagerly, so without
   this the recursive generators below construct the *whole* branch tree
   on every call — exponentially many closures per query (hundreds of
   thousands of [gen_nodeseq] invocations, seconds per generated query).
   [delay] makes construction lazy without consuming any randomness, so
   the generated distribution (and the exact values for a given seed)
   are unchanged. *)
let delay f = return () >>= f

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "g%d" !n

let gen_axis =
  frequencyl
    [
      (6, Ast.Child);
      (3, Ast.Descendant);
      (1, Ast.Descendant_or_self);
      (1, Ast.Self);
      (2, Ast.Attribute);
      (2, Ast.Parent);
      (1, Ast.Ancestor);
      (1, Ast.Following_sibling);
      (1, Ast.Preceding_sibling);
      (1, Ast.Following);
      (1, Ast.Preceding);
    ]

let gen_test names =
  frequency
    [
      (4, map (fun n -> Ast.Name_test n) (oneofa names));
      (2, return Ast.Kind_node);
      (1, return Ast.Wildcard);
      (1, return Ast.Kind_text);
    ]

(* a node sequence drawn from one source; [vars] are in-scope variables
   bound to nodes of the same source *)
let rec gen_nodeseq (uri, names) vars n =
  let base =
    frequency
      ((if vars = [] then []
        else [ (3, map (fun v -> Ast.var v) (oneofl vars)) ])
      @ [ (2, return (Ast.doc uri)) ])
  in
  if n <= 0 then base
  else
    frequency
      [
        (1, base);
        ( 6,
          map2
            (fun ctx (ax, t) -> Ast.step ctx ax t)
            (delay (fun () -> gen_nodeseq (uri, names) vars (n - 1)))
            (pair gen_axis (gen_test names)) );
        ( 2,
          map3
            (fun op a b -> Ast.mk (Ast.Node_set (op, a, b)))
            (oneofl [ Ast.Union; Ast.Intersect; Ast.Except ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))) );
        ( 2,
          (* for loop with an optional predicate *)
          delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))
          >>= fun src ->
          let v = fresh () in
          gen_bool (uri, names) (v :: vars) (n / 2) >>= fun cond ->
          gen_nodeseq (uri, names) (v :: vars) (n / 2) >>= fun body ->
          return
            (Ast.mk
               (Ast.For
                  (v, src, Ast.mk (Ast.If (cond, body, Ast.empty_seq ()))))) );
        ( 1,
          (* let binding *)
          delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))
          >>= fun value ->
          let v = fresh () in
          gen_nodeseq (uri, names) (v :: vars) (n / 2) >>= fun body ->
          return (Ast.mk (Ast.Let (v, value, body))) );
        ( 1,
          (* positional selection keeps sequences small *)
          map2
            (fun ns i -> Ast.fun_call "item-at" [ ns; Ast.int (1 + i) ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n - 1)))
            (int_bound 3) );
        ( 1,
          (* positional selection with a *computed*, provably numeric
             index (out-of-range indexes yield the empty sequence) *)
          map2
            (fun ns ns2 ->
              Ast.fun_call "item-at"
                [
                  ns;
                  Ast.mk
                    (Ast.Arith
                       (Ast.Add, Ast.int 1, Ast.fun_call "count" [ ns2 ]));
                ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))) );
        ( 1,
          (* sequence-reordering builtins: condition-iii mixers, the
             decomposer must not route their output into a remote step *)
          map2
            (fun ns i ->
              match i with
              | 0 -> Ast.fun_call "reverse" [ ns ]
              | _ -> Ast.fun_call "remove" [ ns; Ast.int i ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n - 1)))
            (int_bound 2) );
      ]

and gen_bool (uri, names) vars n =
  if n <= 0 then return (Ast.literal (Ast.A_bool true))
  else
    frequency
      [
        ( 4,
          map3
            (fun ns op k -> Ast.mk (Ast.Value_cmp (op, ns, Ast.int k)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n - 1)))
            (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Gt ])
            (int_bound 45) );
        ( 3,
          map2
            (fun a b -> Ast.mk (Ast.Value_cmp (Ast.Eq, a, b)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))) );
        ( 2,
          map
            (fun ns -> Ast.fun_call "exists" [ ns ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n - 1))) );
        ( 2,
          (* node identity / order on singletons *)
          map3
            (fun op a b ->
              Ast.mk
                (Ast.Node_cmp
                   ( op,
                     Ast.fun_call "item-at" [ a; Ast.int 1 ],
                     Ast.fun_call "item-at" [ b; Ast.int 1 ] )))
            (oneofl [ Ast.Is; Ast.Precedes; Ast.Follows ])
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2)))
            (delay (fun () -> gen_nodeseq (uri, names) vars (n / 2))) );
        ( 1,
          map2
            (fun a b -> Ast.mk (Ast.And (a, b)))
            (delay (fun () -> gen_bool (uri, names) vars (n / 2)))
            (delay (fun () -> gen_bool (uri, names) vars (n / 2))) );
      ]

(* a provably atomic *numeric* expression — the shapes the typing pass
   proves node-free (and often cardinality-one), so the widened insertion
   conditions may ship them where the structural conditions would refuse.
   Division and idiv/mod are avoided: a generated zero denominator would
   turn a typing test into a dynamic-error test. *)
let rec gen_numeric source vars n =
  if n <= 0 then map Ast.int (int_bound 9)
  else
    frequency
      [
        ( 3,
          map
            (fun ns -> Ast.fun_call "count" [ ns ])
            (delay (fun () -> gen_nodeseq source vars (n - 1))) );
        ( 2,
          map3
            (fun op a b -> Ast.mk (Ast.Arith (op, a, b)))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
            (delay (fun () -> gen_numeric source vars (n / 2)))
            (delay (fun () -> gen_numeric source vars (n / 2))) );
        ( 1,
          map
            (fun ns ->
              Ast.fun_call "string-length"
                [
                  Ast.fun_call "string"
                    [ Ast.fun_call "item-at" [ ns; Ast.int 1 ] ];
                ])
            (delay (fun () -> gen_nodeseq source vars (n - 1))) );
        ( 1,
          map
            (fun ns -> Ast.fun_call "sum" [ Ast.fun_call "data" [ ns ] ])
            (delay (fun () -> gen_nodeseq source vars (n - 1))) );
        (1, map Ast.int (int_bound 20));
      ]

(* a provably atomic *string* expression *)
let gen_string source vars n =
  let first ns =
    Ast.fun_call "string" [ Ast.fun_call "item-at" [ ns; Ast.int 1 ] ]
  in
  frequency
    [
      (2, map first (delay (fun () -> gen_nodeseq source vars n)));
      ( 2,
        map2
          (fun ns i ->
            Ast.fun_call
              (if i = 0 then "upper-case" else "lower-case")
              [ first ns ])
          (delay (fun () -> gen_nodeseq source vars n))
          (int_bound 1) );
      ( 1,
        map2
          (fun ns i ->
            Ast.fun_call "substring"
              [ first ns; Ast.int 1; Ast.int (1 + i) ])
          (delay (fun () -> gen_nodeseq source vars n))
          (int_bound 4) );
      ( 1,
        map2
          (fun a b -> Ast.fun_call "concat" [ a; Ast.str "-"; b ])
          (map first (delay (fun () -> gen_nodeseq source vars (n / 2))))
          (map first (delay (fun () -> gen_nodeseq source vars (n / 2)))) );
    ]

(* an order-insensitive atomic observation of a node sequence *)
let gen_atom source vars n =
  frequency
    [
      ( 3,
        map
          (fun ns -> Ast.fun_call "count" [ ns ])
          (delay (fun () -> gen_nodeseq source vars n)) );
      ( 2,
        map
          (fun ns ->
            let v = fresh () in
            Ast.fun_call "string-join"
              [
                Ast.mk
                  (Ast.For (v, ns, Ast.fun_call "name" [ Ast.var v ]));
                Ast.str "-";
              ])
          (delay (fun () -> gen_nodeseq source vars n)) );
      ( 2,
        map
          (fun ns ->
            let v = fresh () in
            Ast.fun_call "string-join"
              [
                Ast.mk
                  (Ast.For (v, ns, Ast.fun_call "string" [ Ast.var v ]));
                Ast.str "|";
              ])
          (delay (fun () -> gen_nodeseq source vars n)) );
      ( 1,
        map
          (fun b -> Ast.fun_call "string" [ b ])
          (delay (fun () -> gen_bool source vars n)) );
      ( 2,
        (* arithmetic over provably atomic subexpressions *)
        map
          (fun x -> Ast.fun_call "string" [ x ])
          (delay (fun () -> gen_numeric source vars n)) );
      (1, delay (fun () -> gen_string source vars n));
      ( 1,
        (* comparison between atomic expressions of two (possibly
           different) sources: both operands are provably atomic, so the
           typed decomposer may push either side independently *)
        oneofa sources >>= fun src2 ->
        map3
          (fun op a b ->
            Ast.fun_call "string" [ Ast.mk (Ast.Value_cmp (op, a, b)) ])
          (oneofl [ Ast.Eq; Ast.Lt; Ast.Ge ])
          (delay (fun () -> gen_numeric source vars (n / 2)))
          (delay (fun () -> gen_numeric src2 [] (n / 2))) );
    ]

(* a whole query: a sequence of observations, possibly over different
   sources, plus one node-valued result from a single source *)
let gen_query =
  sized @@ fun size ->
  let n = 2 + min size 5 in
  list_size (int_range 1 3)
    (oneofa sources >>= fun src -> gen_atom src [] n)
  >>= fun atoms ->
  oneofa sources >>= fun src ->
  gen_nodeseq src [] n >>= fun ns ->
  return { Ast.funcs = []; body = Ast.seq (atoms @ [ ns ]) }

let arb_query =
  QCheck.make ~print:(fun q -> Xd_lang.Pp.query_to_string q) gen_query
