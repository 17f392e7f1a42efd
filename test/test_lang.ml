(* Tests for the XQuery Core engine: evaluation semantics of FLWOR, paths,
   comparisons, node operations, constructors, typeswitch, order by and the
   builtin library. *)

module X = Xd_xml
module V = Xd_lang.Value
open Util

let doc_xml =
  {|<site><people>
      <person id="p1"><name>Ann</name><age>35</age></person>
      <person id="p2"><name>Bob</name><age>52</age></person>
      <person id="p3"><name>Cyd</name><age>28</age></person>
    </people></site>|}

let run q = eval_on_doc doc_xml q

(* ---- paths ------------------------------------------------------------- *)

let test_child_steps () =
  check_string "names" "<name>Ann</name><name>Bob</name><name>Cyd</name>"
    (run {|doc("test.xml")/site/people/person/name|})

let test_descendant () =
  check_string "double slash" "<age>35</age><age>52</age><age>28</age>"
    (run {|doc("test.xml")//age|})

let test_attribute_step () =
  check_string "attributes atomize" "p1 p2 p3"
    (run {|for $p in doc("test.xml")//person return string($p/@id)|})

let test_parent_step () =
  check_string "parent" "people"
    (run {|name((doc("test.xml")//age)[1]/../..)|})

let test_wildcard () =
  check_string "wildcard counts" "3" (run {|string(count(doc("test.xml")/site/people/*))|})

let test_text_test () =
  check_string "text()" "Ann" (run {|string((doc("test.xml")//name/text())[1])|})

let test_dedup_order () =
  (* the same nodes reached twice: steps dedup and restore doc order *)
  check_string "dedup" "3"
    (run {|string(count((doc("test.xml")//person, doc("test.xml")//person)/name))|})

let test_reverse_doc_order () =
  check_string "reverse input still doc order" "AnnBobCyd"
    (run
       {|string(string-join(for $n in reverse(doc("test.xml")//person)/name return string($n), ""))|})

(* ---- FLWOR -------------------------------------------------------------- *)

let test_for_where () =
  check_string "where filter" "<name>Ann</name><name>Cyd</name>"
    (run {|for $p in doc("test.xml")//person where $p/age < 40 return $p/name|})

let test_let () =
  check_string "let binding" "6"
    (run {|let $x := (1, 2, 3) return string(count($x) * 2)|})

let test_nested_for () =
  check_string "cartesian" "9"
    (run
       {|string(count(for $a in doc("test.xml")//person, $b in doc("test.xml")//person return 1))|})

let test_if () =
  check_string "if" "yes" (run {|if (1 < 2) then "yes" else "no"|});
  check_string "else" "no" (run {|if (2 < 1) then "yes" else "no"|});
  check_string "ebv empty" "no" (run {|if (()) then "yes" else "no"|});
  check_string "ebv node" "yes"
    (run {|if (doc("test.xml")//person) then "yes" else "no"|})

let test_order_by () =
  check_string "ascending" "CydAnnBob"
    (run
       {|string(string-join(for $p in doc("test.xml")//person order by $p/age ascending return string($p/name), ""))|});
  check_string "descending" "BobAnnCyd"
    (run
       {|string(string-join(for $p in doc("test.xml")//person order by $p/age descending return string($p/name), ""))|});
  check_string "string keys" "AnnBobCyd"
    (run
       {|string(string-join(for $p in doc("test.xml")//person order by $p/name return string($p/name), ""))|})

let test_predicates () =
  check_string "boolean predicate" "<name>Bob</name>"
    (run {|doc("test.xml")//person[age > 50]/name|});
  check_string "positional predicate" "<name>Bob</name>"
    (run {|doc("test.xml")//person[2]/name|});
  check_string "nested predicates" "<name>Cyd</name>"
    (run {|doc("test.xml")//person[age < 40][2]/name|})

(* ---- comparisons --------------------------------------------------------- *)

let test_general_comparison () =
  check_string "existential" "true"
    (run {|string(doc("test.xml")//age = 35)|});
  check_string "existential false" "false"
    (run {|string(doc("test.xml")//age = 99)|});
  check_string "untyped vs number" "true" (run {|string((doc("test.xml")//age)[1] < 36)|});
  check_string "string comparison" "true" (run {|string("abc" < "abd")|});
  check_string "ne on sequences" "true" (run {|string((1, 2) != 2)|})

let test_type_errors () =
  let fails q = match run q with exception V.Type_error _ -> true | _ -> false in
  check_bool "string vs int comparison fails" (fails {|string("abc" < 42)|});
  check_bool "arith on multi-item fails" (fails {|string((1,2) + 1)|})

let test_node_comparisons () =
  check_string "is self" "true"
    (run {|let $p := (doc("test.xml")//person)[1] return string($p is $p)|});
  check_string "is distinct" "false"
    (run
       {|string((doc("test.xml")//person)[1] is (doc("test.xml")//person)[2])|});
  check_string "precedes" "true"
    (run
       {|string((doc("test.xml")//person)[1] << (doc("test.xml")//person)[2])|});
  check_string "follows" "true"
    (run
       {|string((doc("test.xml")//person)[2] >> (doc("test.xml")//person)[1])|});
  check_string "empty operand" ""
    (run {|string(count(() is (doc("test.xml")//person)[1]))|} |> fun s ->
     if s = "0" then "" else s)

let test_node_set_ops () =
  check_string "union dedups" "3"
    (run
       {|string(count(doc("test.xml")//person union doc("test.xml")//person))|});
  check_string "intersect" "1"
    (run
       {|string(count(doc("test.xml")//person intersect (doc("test.xml")//person)[2]))|});
  check_string "except" "2"
    (run
       {|string(count(doc("test.xml")//person except (doc("test.xml")//person)[2]))|})

let test_arith () =
  check_string "add" "7" (run {|string(3 + 4)|});
  check_string "precedence" "14" (run {|string(2 + 3 * 4)|});
  check_string "div" "2.5" (run {|string(5 div 2)|});
  check_string "idiv" "2" (run {|string(5 idiv 2)|});
  check_string "mod" "1" (run {|string(5 mod 2)|});
  check_string "untyped arithmetic" "70"
    (run {|string((doc("test.xml")//age)[1] * 2)|})

(* ---- constructors --------------------------------------------------------- *)

let test_direct_constructor () =
  check_string "static" "<a x=\"1\"><b>t</b></a>" (run {|<a x="1"><b>t</b></a>|});
  check_string "splice" "<a><name>Ann</name></a>"
    (run {|<a>{(doc("test.xml")//name)[1]}</a>|});
  check_string "attr splice" "<a n=\"Ann\"/>"
    (run {|<a n="{(doc("test.xml")//name)[1]}"/>|});
  check_string "atoms joined" "<a>1 2 3</a>" (run {|<a>{(1, 2, 3)}</a>|})

let test_computed_constructors () =
  check_string "element" "<x>hi</x>" (run {|element x {"hi"}|});
  check_string "computed name" "<q/>" (run {|element {"q"} {()}|});
  check_string "nested" "<x><y/></x>" (run {|element x {element y {()}}|});
  check_string "attribute in content" "<x a=\"1\">t</x>"
    (run {|element x {attribute a {1}, "t"}|});
  check_string "text node" "hello" (run {|string(text {"hello"})|});
  check_string "document" "<r/>" (run {|document {element r {()}}|})

let test_constructor_identity () =
  (* each evaluation constructs a fresh node *)
  check_string "fresh identity" "false"
    (run {|let $f := <a/> let $g := <a/> return string($f is $g)|});
  check_string "copy severs structure" "0"
    (run
       {|let $p := (doc("test.xml")//person)[1]
         let $c := <wrap>{$p}</wrap>
         return string(count($c/person intersect $p))|})

let test_constructed_navigation () =
  (* the makenodes() example of Table I *)
  check_string "parent of constructed child" "1"
    (run {|let $bc := (<a><b><c/></b></a>)/b return string(count($bc/parent::a))|});
  check_string "value" "<b><c/></b>" (run {|(<a><b><c/></b></a>)/b|})

(* A constructed node has no parent, and fn:root and the reverse axes
   stop at it; a node inside a constructed tree keeps its parent. *)
let test_constructed_parentless () =
  List.iter
    (fun (q, want) -> check_string q want (run q))
    [
      ({|count(<y/>/parent::node())|}, "0");
      ({|count(text {"t"}/parent::node())|}, "0");
      ({|count(<y/>/ancestor::node())|}, "0");
      ({|count(root(<y/>)/child::y)|}, "0");
      ({|let $y := <y/> return root($y) is $y|}, "true");
      ({|count(attribute a {"1"}/parent::node())|}, "0");
      ({|name(attribute a {"1"}/parent::node())|}, "");
      ({|let $a := attribute a {"1"} return root($a) is $a|}, "true");
      ({|count(<a><b/><c/></a>/child::c/preceding::node())|}, "1");
      ({|count(<a><b/><c/></a>/child::c/ancestor-or-self::node())|}, "2");
      ({|count(<a x="1"/>/attribute::x/parent::node())|}, "1");
      ({|count(document { <y/> }/child::y/parent::node())|}, "1");
      ({|count(<a><y/></a>/child::y/parent::node())|}, "1");
    ]

(* A by-value copy is parentless too: the callee's constructed node
   arrives as a fresh document whose top node, element, text or
   attribute alike, has no parent — what run_local answers. *)
let test_shipped_copy_parentless () =
  List.iter
    (fun body ->
      let net = Xd_xrpc.Network.create () in
      let client = Xd_xrpc.Network.new_peer net "client" in
      ignore (Xd_xrpc.Network.new_peer net "peer1");
      let session =
        Xd_xrpc.Session.create net client Xd_xrpc.Message.By_value
      in
      let q =
        Printf.sprintf
          {|count((execute at {"peer1"} function () { %s })/parent::node())|}
          body
      in
      check_string q "0"
        (Xd_lang.Value.serialize
           (Xd_xrpc.Session.execute session (Xd_lang.Parser.parse_query q))))
    [ "<y/>"; {|text {"t"}|}; {|attribute a {"1"}|} ]

(* ---- typeswitch ------------------------------------------------------------ *)

let test_typeswitch () =
  check_string "element case" "elem"
    (run
       {|typeswitch (<a/>) case $e as element() return "elem" default $d return "other"|});
  check_string "string case" "str"
    (run
       {|typeswitch ("x") case $e as element() return "elem" case $s as xs:string return "str" default $d return "other"|});
  check_string "occurrence" "many"
    (run
       {|typeswitch ((1, 2)) case $o as xs:integer return "one" case $m as xs:integer+ return "many" default $d return "other"|});
  check_string "empty" "empty"
    (run
       {|typeswitch (()) case $e as empty-sequence() return "empty" default $d return "other"|});
  check_string "default binds" "2"
    (run {|typeswitch ((1, 2)) case $e as element() return "elem" default $d return string(count($d))|})

(* ---- functions -------------------------------------------------------------- *)

let test_user_functions () =
  check_string "simple" "10"
    (eval_on_doc doc_xml
       {|declare function double($x as xs:integer) as xs:integer { $x * 2 };
         string(double(5))|});
  check_string "recursion" "120"
    (eval_on_doc doc_xml
       {|declare function fact($n) { if ($n <= 1) then 1 else $n * fact($n - 1) };
         string(fact(5))|});
  check_string "node params" "Ann"
    (eval_on_doc doc_xml
       {|declare function nm($p as node()) as xs:string { string($p/name) };
         nm((doc("test.xml")//person)[1])|})

let test_builtins () =
  check_string "count" "3" (run {|string(count(doc("test.xml")//person))|});
  check_string "empty/exists" "falsetrue"
    (run {|concat(string(empty((1))), string(exists((1))))|});
  check_string "not" "false" (run {|string(not(1 = 1))|});
  check_string "concat" "abc" (run {|concat("a", "b", "c")|});
  check_string "contains" "true" (run {|string(contains("hello", "ell"))|});
  check_string "starts-with" "true" (run {|string(starts-with("hello", "he"))|});
  check_string "substring" "ell" (run {|substring("hello", 2, 3)|});
  check_string "string-join" "a-b" (run {|string-join(("a", "b"), "-")|});
  check_string "normalize-space" "a b" (run {|normalize-space("  a   b  ")|});
  check_string "upper" "ABC" (run {|upper-case("abc")|});
  check_string "sum" "115" (run {|string(sum(doc("test.xml")//age))|});
  check_string "avg" "38.33" (String.sub (run {|string(avg(doc("test.xml")//age))|}) 0 5);
  check_string "max/min" "52 28"
    (run {|concat(string(max(doc("test.xml")//age)), " ", string(min(doc("test.xml")//age)))|});
  check_string "distinct-values" "2" (run {|string(count(distinct-values((1, 2, 1))))|});
  check_string "reverse" "cba" (run {|string-join(reverse(("a", "b", "c")), "")|});
  check_string "subsequence" "bc" (run {|string-join(subsequence(("a","b","c","d"), 2, 2), "")|});
  check_string "deep-equal true" "true" (run {|string(deep-equal(<a><b/></a>, <a><b/></a>))|});
  check_string "deep-equal false" "false" (run {|string(deep-equal(<a><b/></a>, <a><c/></a>))|});
  check_string "name" "person" (run {|name((doc("test.xml")//person)[1])|});
  check_string "number" "35" (run {|string(number((doc("test.xml")//age)[1]))|});
  check_string "string-length" "5" (run {|string(string-length("hello"))|});
  check_string "substring-before/after" "he-llo"
    (run {|concat(substring-before("he.llo", "."), "-", substring-after("he.llo", "."))|})

let test_doc_functions () =
  check_string "root" "site"
    (run {|name(root((doc("test.xml")//age)[1])/site)|} |> fun s ->
     if s = "site" then "site" else s);
  check_string "base-uri" "test.xml"
    (run {|string(base-uri((doc("test.xml")//person)[1]))|});
  check_string "document-uri" "test.xml"
    (run {|string(document-uri(doc("test.xml")))|});
  check_string "static-base-uri" "xdx://local/" (run {|string(static-base-uri())|});
  check_string "default-collation" "codepoint" (run {|string(default-collation())|})

let test_id_idref () =
  check_string "fn:id" "Bob"
    (run {|string(id("p2", doc("test.xml"))/name)|});
  check_string "fn:id multi" "2"
    (run {|string(count(id(("p1", "p3"), doc("test.xml"))))|})

let test_root_builtin () =
  check_string "root returns doc node" "true"
    (run {|string(root((doc("test.xml")//age)[1]) is doc("test.xml"))|})

(* ---- additional evaluator depth ------------------------------------------- *)

let test_multi_key_order_by () =
  let doc =
    {|<g><p><a>2</a><b>x</b></p><p><a>1</a><b>y</b></p><p><a>2</a><b>a</b></p></g>|}
  in
  check_string "two keys, mixed directions" "y|a|x"
    (eval_on_doc doc
       {|string-join(
           for $p in doc("test.xml")/g/p
           order by $p/a ascending, $p/b ascending
           return string($p/b), "|")|})

let test_copy_attributes_into_constructor () =
  (* an attribute node in constructor content becomes an attribute of the
     new element *)
  check_string "attribute copied" {|<w id="p1"/>|}
    (run {|<w>{(doc("test.xml")//person)[1]/@id}</w>|})

let test_constructed_base_uri () =
  (* constructed nodes have no document uri *)
  check_string "no base-uri on constructed" "0"
    (run {|string(count(base-uri(<a/>)))|})

let test_boolean_comparisons () =
  check_string "bool = bool" "true" (run {|string(true() = true())|});
  check_string "bool order" "true" (run {|string(false() < true())|});
  let fails q = match run q with exception Xd_lang.Value.Type_error _ -> true | _ -> false in
  check_bool "bool vs string errors" (fails {|string(true() = "true")|})

let test_attr_node_set_ops () =
  check_string "attributes in node sets" "3"
    (run
       {|string(count(doc("test.xml")//person/@id union doc("test.xml")//person/@id))|});
  check_string "attr except" "2"
    (run
       {|string(count(doc("test.xml")//person/@id except (doc("test.xml")//person)[1]/@id))|})

let test_axes_from_attributes () =
  check_string "parent of attribute" "person"
    (run {|name(((doc("test.xml")//person)[1]/@id)/..)|});
  check_string "ancestors of attribute" "3"
    (run {|string(count(((doc("test.xml")//person)[1]/@id)/ancestor::*))|})

let test_untyped_arithmetic_from_attr () =
  let doc = {|<r><i v="21"/></r>|} in
  check_string "attr value in arithmetic" "42"
    (eval_on_doc doc {|string(doc("test.xml")/r/i/@v * 2)|})

let test_nested_function_shadowing () =
  check_string "params shadow across calls" "10"
    (eval_on_doc doc_xml
       {|declare function add2($x) { $x + 2 };
         declare function addboth($x) { add2($x) + add2($x * 2) };
         string(addboth(2))|})

let test_empty_sequences_everywhere () =
  check_string "empty in arithmetic" "0" (run {|string(count(1 + ()))|});
  check_string "empty in comparison" "false" (run {|string(() = 1)|});
  check_string "empty path context" "0" (run {|string(count(()/child::a))|});
  check_string "for over empty" "0" (run {|string(count(for $x in () return 1))|})

let test_if_over_node_ebv () =
  check_string "node sequence is truthy" "y"
    (run {|if (doc("test.xml")//nonexistent, doc("test.xml")//person) then "y" else "n"|} |> fun s -> s)

(* ---- errors ------------------------------------------------------------- *)

let test_dynamic_errors () =
  let fails q =
    match run q with
    | exception Xd_lang.Env.Dynamic_error _ -> true
    | _ -> false
  in
  check_bool "unbound variable" (fails {|$nope|});
  check_bool "unknown function" (fails {|nosuchfn(1)|});
  check_bool "missing doc" (fails {|doc("nope.xml")|});
  check_bool "bad arity" (fails {|count(1, 2)|})

(* ---- loop invariants ---------------------------------------------------
   A loop evaluates its invariant subexpressions once and probes [=]
   against them; none of that may be visible in a result or an error. *)

module A = Xd_lang.Ast

let raises q =
  match run q with
  | _ -> "no error"
  | exception Xd_lang.Env.Dynamic_error m -> "dynamic error: " ^ m
  | exception V.Type_error _ -> "type error"

let test_invariant_unused () =
  check_string "empty loop" "" (run {|for $i in () return error("boom")|});
  check_string "empty inner loop" ""
    (run {|for $i in (1, 2) return for $j in () return error("boom")|});
  check_string "untaken branch" "1 2 3"
    (run {|for $i in (1, 2, 3) return if ($i > 5) then error("boom") else $i|});
  check_string "untaken doc()" "1 2"
    (run {|for $i in (1, 2) return if ($i > 5) then doc("none.xml") else $i|})

let test_invariant_constructors () =
  check_string "fresh node per iteration" "false"
    (run
       {|let $s := for $i in (1, 2) return <a/>
         return string(item-at($s, 1) is item-at($s, 2))|});
  check_string "fresh copies of invariant content" "2"
    (run
       {|let $s := for $i in (1, 2) return <a>{doc("test.xml")//age}</a>
         return string(count($s union $s))|})

let test_invariant_shadowing () =
  check_string "a let shadows an outer variable" "a- b-"
    (run
       {|let $x := "out"
         return for $i in ("a", "b") return let $x := $i return concat($x, "-")|});
  check_string "over nodes" "Ann Bob Cyd"
    (run
       {|let $x := doc("test.xml")//person
         return for $p in doc("test.xml")//person
                return let $x := $p return string($x/name)|})

let test_invariant_error_order () =
  check_string "both operands invariant" "dynamic error: right"
    (raises {|for $i in (1, 2) return error("left") = error("right")|});
  check_string "the comparison alone invariant" "dynamic error: right"
    (raises {|for $i in (1, 2) return ($i, error("left") = error("right"))|});
  check_string "left operand invariant" "dynamic error: left"
    (raises {|for $i in (1, 2) return error("left") = $i|})

(* Scan order and promotion decide these; each comparison is checked with
   its invariant operand on the left and on the right. *)
let test_invariant_promotion () =
  check_string "(\"x\", 1) = (\"x\", \"y\"), left invariant" "true true"
    (run {|for $s in ("y", "y") return data(("x", 1)) = data(("x", $s))|});
  check_string "(\"x\", 1) = (\"x\", \"y\"), right invariant" "true true"
    (run {|for $n in (1, 1) return data(("x", $n)) = data(("x", "y"))|});
  check_string "(1, \"x\") = (\"x\", \"y\"), left invariant" "type error"
    (raises {|for $s in ("y", "y") return data((1, "x")) = data(("x", $s))|});
  check_string "(1, \"x\") = (\"x\", \"y\"), right invariant" "type error"
    (raises {|for $n in (1, 1) return data(($n, "x")) = data(("x", "y"))|});
  check_string "untyped 35 = 35.0, left invariant" "true true"
    (run {|for $d in (35.0, 35.0) return doc("test.xml")//person[1]/age = $d|});
  check_string "untyped 35 = 35.0, right invariant" "true true"
    (run {|for $d in (35.0, 35.0) return $d = doc("test.xml")//person[1]/age|});
  let run_v q = eval_on_doc {|<r><v>035</v><v>x</v></r>|} q in
  check_string "untyped 035 = 35, left invariant" "true true"
    (run_v {|for $n in (35, 35) return doc("test.xml")//v = $n|});
  check_string "untyped 035 = 35, right invariant" "true true"
    (run_v {|for $n in (35, 35) return $n = doc("test.xml")//v|})

(* A function body that shares a node with a loop body must not see the
   loop's cache: there the node's variable is the parameter. *)
let test_invariant_call_scope () =
  let shared = A.fun_call "count" [ A.var "w" ] in
  let f =
    { A.f_name = "local:f"; f_params = [ ("w", None) ]; f_return = None; f_body = shared }
  in
  let loop =
    A.mk
      (A.For
         ("i", A.seq [ A.int 1; A.int 2 ], A.seq [ shared; A.fun_call "local:f" [ A.var "i" ] ]))
  in
  let body = A.mk (A.Let ("w", A.seq [ A.int 1; A.int 2; A.int 3 ], loop)) in
  check_string "the call evaluates the shared node afresh" "3 1 3 1"
    (V.serialize (Xd_lang.Eval.run_query (store ()) { A.funcs = [ f ]; body }))

(* The differential: every query evaluates once as is and once with each
   For run per iteration through the scheduling hook, which gets first
   refusal at every For. Both must agree on the value, on which result
   nodes are the same node, and on the error raised. *)

let per_iteration (env : Xd_lang.Env.t) (e : Xd_lang.Ast.expr) =
  match e.desc with
  | Xd_lang.Ast.For (v, e1, e2) ->
    let seq = Xd_lang.Eval.eval env e1 in
    Some
      (List.concat_map
         (fun item -> Xd_lang.Eval.eval (Xd_lang.Env.bind env v [ item ]) e2)
         seq)
  | _ -> None

let outcome ?schedule store (q : Xd_lang.Ast.query) =
  let env = Xd_lang.Eval.default_env ~funcs:q.funcs store in
  match Xd_lang.Eval.eval { env with Xd_lang.Env.schedule } q.body with
  | v ->
    let nodes = List.filter_map (function V.N n -> Some n | V.A _ -> None) v in
    let same = List.map (fun a -> List.map (X.Node.same a) nodes) nodes in
    Ok (V.serialize v, same)
  | exception Xd_lang.Env.Dynamic_error m -> Error ("dynamic error: " ^ m)
  | exception V.Type_error m -> Error ("type error: " ^ m)

let students = "xrpc://peerA/students.xml"
let course = "xrpc://peerB/course.xml"

(* thunks: every use builds fresh nodes, so no subtree is shared unless a
   generator shares it on purpose *)
let doc_paths =
  let path uri steps =
    List.fold_left (fun e (ax, t) -> A.step e ax t) (A.doc uri) steps
  in
  [
    (fun () -> path students [ (A.Descendant, A.Name_test "person") ]);
    (fun () -> path students [ (A.Descendant, A.Name_test "name") ]);
    (fun () -> path students [ (A.Descendant, A.Name_test "age") ]);
    (fun () ->
      path students
        [ (A.Descendant, A.Name_test "person"); (A.Attribute, A.Name_test "id") ]);
    (fun () ->
      path course
        [ (A.Descendant, A.Name_test "exam"); (A.Attribute, A.Name_test "id") ]);
    (fun () -> path course [ (A.Descendant, A.Name_test "topic") ]);
    (fun () -> path "local.xml" [ (A.Descendant, A.Name_test "minage") ]);
  ]

let loop_vars = [ "i"; "j"; "x" ]

module Gen_loops = struct
  open QCheck.Gen

  let gen_leaf vars =
    frequency
      ([
         (2, map A.str (oneofl [ "x"; "y"; "35"; "s1"; "db"; "1" ]));
         (2, map A.int (oneofl [ 1; 2; 4; 35 ]));
         (1, map (fun () -> A.literal (A.A_float 35.0)) unit);
         (1, map (fun () -> A.empty_seq ()) unit);
         (4, map (fun path -> path ()) (oneofl doc_paths));
       ]
      @ if vars = [] then [] else [ (5, map A.var (oneofl vars)) ])

  (* what a loop runs over: mostly two items or more *)
  let rec gen_source vars n =
    frequency
      [
        (2, map (fun () -> A.seq [ A.int 1; A.int 2; A.int 3 ]) unit);
        (2, map (fun () -> A.seq [ A.str "x"; A.str "s1"; A.str "y" ]) unit);
        (4, map (fun path -> path ()) (oneofl doc_paths));
        (1, Gen_queries.delay (fun () -> gen_body vars (n / 2)));
      ]

  and gen_body vars n =
    if n <= 0 then gen_leaf vars
    else
      let sub ?(vars = vars) k = Gen_queries.delay (fun () -> gen_body vars k) in
      frequency
        [
          (2, gen_leaf vars);
          ( 3,
            oneofl loop_vars >>= fun v ->
            map2
              (fun src body -> A.mk (A.For (v, src, body)))
              (gen_source vars n)
              (sub ~vars:(v :: vars) (n - 1)) );
          ( 3,
            map3
              (fun op a b -> A.mk (A.Value_cmp (op, a, b)))
              (oneofl [ A.Eq; A.Eq; A.Eq; A.Ne; A.Lt ])
              (sub (n / 2)) (sub (n / 2)) );
          ( 2,
            map3 (fun c a b -> A.mk (A.If (c, a, b))) (sub (n / 2)) (sub (n / 2))
              (sub (n / 2)) );
          ( 2,
            oneofl loop_vars >>= fun v ->
            map2
              (fun value body -> A.mk (A.Let (v, value, body)))
              (sub (n / 2))
              (sub ~vars:(v :: vars) (n / 2)) );
          (1, map (fun c -> A.mk (A.Elem_constr (A.Fixed_name "c", c))) (sub (n - 1)));
          (1, map (fun m -> A.fun_call "error" [ A.str m ]) (oneofl [ "e1"; "e2" ]));
          ( 2,
            map2
              (fun f a -> A.fun_call f [ a ])
              (oneofl [ "data"; "count"; "exists"; "distinct-values" ])
              (sub (n - 1)) );
          (1, map2 (fun a b -> A.seq [ a; b ]) (sub (n / 2)) (sub (n / 2)));
          (1, map (fun a -> A.step a A.Child A.Kind_node) (sub (n - 1)));
          ( 1,
            map2
              (fun a b ->
                A.mk
                  (A.Node_cmp
                     ( A.Is,
                       A.fun_call "item-at" [ a; A.int 1 ],
                       A.fun_call "item-at" [ b; A.int 2 ] )))
              (sub (n / 2)) (sub (n / 2)) );
          ( 2,
            (* one physical subtree in two places: under a let that rebinds
               the variable it reads, and outside it *)
            oneofl (if vars = [] then loop_vars else vars) >>= fun v ->
            map2
              (fun value shared ->
                A.seq [ A.mk (A.Let (v, value, shared)); shared ])
              (sub (n / 2))
              (sub ~vars:[ v ] (n / 2)) );
        ]

  (* a loop, maybe under an outer binding that its body reads or shadows *)
  let gen_flwor =
    sized @@ fun size ->
    let n = 2 + min size 4 in
    oneofl loop_vars >>= fun v ->
    oneofl loop_vars >>= fun w ->
    bool >>= fun outer ->
    let scope = if outer then [ w ] else [] in
    gen_source scope n >>= fun src ->
    gen_body (v :: scope) n >>= fun body ->
    let loop = A.mk (A.For (v, src, body)) in
    (if outer then map (fun path -> A.mk (A.Let (w, path (), loop))) (oneofl doc_paths)
     else return loop)
    >>= fun body -> return { A.funcs = []; body }
end

let arb_invariant_query =
  QCheck.make
    ~print:(fun q -> Xd_lang.Pp.query_to_string q)
    (QCheck.Gen.frequency
       [ (1, Gen_queries.gen_query); (2, Gen_loops.gen_flwor) ])

let prop_invariants_differential =
  qtest ~count:1200 "hoisted loops = per-iteration loops" arb_invariant_query
    (fun q ->
      let store = store () in
      List.iter
        (fun (uri, text) -> ignore (X.Parser.parse ~store ~uri text))
        Gen_queries.documents;
      let got = outcome store q in
      let want = outcome ~schedule:per_iteration store q in
      if got = want then true
      else
        let show = function
          | Ok (s, _) -> s
          | Error m -> m
        in
        QCheck.Test.fail_reportf "hoisted: %s@.per iteration: %s" (show got)
          (show want))

let test_parse_errors () =
  let fails q =
    match Xd_lang.Parser.parse_query q with
    | exception Xd_lang.Parser.Error _ -> true
    | exception Xd_lang.Lexer.Error _ -> true
    | _ -> false
  in
  check_bool "unclosed paren" (fails "(1, 2");
  check_bool "missing return" (fails "for $x in (1,2) $x");
  check_bool "bad step" (fails "doc(\"x\")/child::");
  check_bool "trailing garbage" (fails "1 2")

(* ---- properties ------------------------------------------------------------ *)

let arb_small_int = QCheck.int_range 0 30

let prop_arith_matches_ocaml =
  qtest "integer arithmetic matches OCaml"
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      let st = store () in
      let got =
        Xd_lang.Value.serialize
          (Xd_lang.Eval.run st (Printf.sprintf "string(%d + %d * 2)" a b))
      in
      got = string_of_int (a + (b * 2)))

let prop_count_of_seq =
  qtest "count of literal sequence" (QCheck.list_of_size (QCheck.Gen.int_bound 20) arb_small_int)
    (fun xs ->
      let st = store () in
      let lit =
        if xs = [] then "()"
        else "(" ^ String.concat ", " (List.map string_of_int xs) ^ ")"
      in
      Xd_lang.Value.serialize
        (Xd_lang.Eval.run st (Printf.sprintf "string(count(%s))" lit))
      = string_of_int (List.length xs))

let prop_steps_sorted_dedup =
  qtest "path steps yield sorted duplicate-free node sequences" arb_tree
    (fun t ->
      let st = store () in
      let _ = X.Store.add st (X.Doc.of_tree ~uri:"p.xml" (root_of_tree t)) in
      let v = Xd_lang.Eval.run st {|doc("p.xml")//*|} in
      let nodes = Xd_lang.Value.nodes_of v in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          X.Node.compare_order a b < 0 && ok rest
        | _ -> true
      in
      ok nodes)

(* ---- document order: a differential harness ------------------------------

   Path steps and the node-set operators against references that share
   nothing with them: axes from parent links alone, node tests by
   [List.filter], and order by polymorphic [compare] on the tuple key
   document order was first defined by. The data is two registered
   documents plus a [Store.replace_doc] successor of the first, which
   shares its document id; contexts are unsorted, duplicated, and mix
   tree and attribute nodes of all three. *)

module Ast = Xd_lang.Ast

let tuple_key (n : X.Node.t) =
  (n.doc.X.Doc.did, n.idx, (if n.attr >= 0 then 1 else 0), n.attr)

(* stable sort; of equal nodes keep the last, as the evaluator always has *)
let ref_sort_dedup ns =
  let sorted =
    List.stable_sort (fun a b -> compare (tuple_key a) (tuple_key b)) ns
  in
  let rec dedup = function
    | a :: (b :: _ as rest) ->
      if tuple_key a = tuple_key b then dedup rest else a :: dedup rest
    | rest -> rest
  in
  dedup sorted

(* [below d anc i]: tree node [i] is a proper descendant of [anc] *)
let rec below (d : X.Doc.t) anc i =
  let p = d.X.Doc.parent.(i) in
  p >= 0 && (p = anc || below d anc p)

let ref_axis axis (n : X.Node.t) =
  let d = n.doc and i = n.idx and is_attr = n.attr >= 0 in
  let parent = d.X.Doc.parent in
  let tree keep =
    List.filter
      (fun (m : X.Node.t) -> keep m.idx)
      (List.init (X.Doc.n_nodes d) (X.Node.of_tree d))
  in
  (* for an attribute, [i] is its owner, which is also its parent *)
  let ancestors () =
    tree (fun j -> below d j i) @ if is_attr then [ X.Node.of_tree d i ] else []
  in
  let siblings keep =
    if is_attr then []
    else tree (fun j -> j <> i && parent.(j) = parent.(i) && keep j)
  in
  match axis with
  | Ast.Self -> [ n ]
  | Ast.Child -> if is_attr then [] else tree (fun j -> parent.(j) = i)
  | Ast.Descendant -> if is_attr then [] else tree (below d i)
  | Ast.Descendant_or_self ->
    if is_attr then [ n ] else tree (fun j -> j = i || below d i j)
  | Ast.Attribute ->
    if is_attr then []
    else
      List.filter
        (fun (a : X.Node.t) -> a.idx = i)
        (List.init (X.Doc.n_attrs d) (X.Node.of_attr d))
  | Ast.Parent ->
    if is_attr then [ X.Node.of_tree d i ] else tree (fun j -> parent.(i) = j)
  | Ast.Ancestor -> ancestors ()
  | Ast.Ancestor_or_self -> ancestors () @ [ n ]
  | Ast.Following_sibling -> siblings (fun j -> j > i)
  | Ast.Preceding_sibling -> siblings (fun j -> j < i)
  (* an attribute's following and preceding are its owner's *)
  | Ast.Following -> tree (fun j -> j > i && not (below d i j))
  | Ast.Preceding -> tree (fun j -> j < i && not (below d j i))

let ref_step axis test ctx =
  let per_node n =
    List.filter (Xd_lang.Eval.test_matches axis test) (ref_axis axis n)
  in
  ref_sort_dedup (List.concat_map per_node ctx)

(* [a] contains [m]: the same node, or [a] is a tree node and [m] (or, for
   an attribute, its owner) is [a] or below it in [a]'s document *)
let ref_contains (a : X.Node.t) (m : X.Node.t) =
  tuple_key a = tuple_key m
  || a.attr < 0
     && a.doc.X.Doc.did = m.doc.X.Doc.did
     && m.idx < X.Doc.n_nodes a.doc
     && (m.idx = a.idx || below a.doc a.idx m.idx)

let ref_member n ns = List.exists (fun m -> tuple_key m = tuple_key n) ns

let ref_maximal ns =
  let rec keep = function
    | [] -> []
    | n :: rest ->
      n :: keep (List.filter (fun m -> not (ref_contains n m)) rest)
  in
  keep (ref_sort_dedup ns)

let all_axes =
  Ast.
    [
      Child; Descendant; Descendant_or_self; Self; Attribute; Parent; Ancestor;
      Ancestor_or_self; Following; Following_sibling; Preceding;
      Preceding_sibling;
    ]

(* Nodes identical down to the physical document version. *)
let same_nodes got want =
  List.length got = List.length want
  && List.for_all2
       (fun (m : X.Node.t) (n : X.Node.t) ->
         m.doc == n.doc && m.idx = n.idx && m.attr = n.attr)
       got want

let show_nodes ns =
  String.concat " " (List.map (Fmt.to_to_string X.Node.pp) ns)

let agree what got want =
  same_nodes got want
  || QCheck.Test.fail_reportf "%s:@ got  [%s]@ want [%s]" what (show_nodes got)
       (show_nodes want)

(* every tree and attribute node of the first document, its successor and
   the second document *)
let order_pool (t1, t2, t3) =
  let st = store () in
  let doc t = X.Doc.of_tree ~uri:"a.xml" (root_of_tree t) in
  let a = X.Store.add st (doc t1) in
  let b = X.Store.add st (X.Doc.of_tree ~uri:"b.xml" (root_of_tree t2)) in
  let a' = X.Store.replace_doc st a (doc t3) in
  let nodes d =
    List.init (X.Doc.n_nodes d) (X.Node.of_tree d)
    @ List.init (X.Doc.n_attrs d) (X.Node.of_attr d)
  in
  Array.of_list (nodes a @ nodes a' @ nodes b)

let arb_order_case =
  let open QCheck.Gen in
  let tree = sized_size (int_bound 24) sized_tree in
  let picks = pair (list_size (int_bound 12) nat) bool in
  let print_tree = Option.get arb_tree.QCheck.print in
  QCheck.make
    ~print:(fun ((t1, t2, t3), (pa, sa), (pb, sb), name) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf
        "a=%s\nb=%s\na'=%s\nctx=[%s] sorted=%b\nother=[%s] sorted=%b\nname=%s"
        (print_tree t1) (print_tree t2) (print_tree t3) (ints pa) sa (ints pb)
        sb name)
    (quad (triple tree tree tree) picks picks (oneofl [ "a"; "b"; "id"; "k" ]))

let prop_document_order =
  qtest ~count:1000
    "steps and node-set operators match the tuple-key reference" arb_order_case
    (fun (trees, (pa, sa), (pb, sb), name) ->
      let pool = order_pool trees in
      let pick (picks, sorted) =
        let ns = List.map (fun i -> pool.(i mod Array.length pool)) picks in
        if sorted then ref_sort_dedup ns else ns
      in
      let ctx = pick (pa, sa) and other = pick (pb, sb) in
      let tests =
        Ast.
          [
            Name_test name; Wildcard; Kind_node; Kind_text; Kind_attribute None;
          ]
      in
      List.iter
        (fun axis ->
          List.iter
            (fun test ->
              ignore
                (agree
                   (Printf.sprintf "step %s::%s" (Xd_lang.Pp.axis_name axis)
                      (Xd_lang.Pp.node_test_name test))
                   (Xd_lang.Eval.eval_step axis test ctx)
                   (ref_step axis test ctx)))
            tests)
        all_axes;
      List.iter
        (fun m ->
          List.iter
            (fun n ->
              let want = compare (tuple_key m) (tuple_key n) in
              if
                Int.compare (X.Node.compare_order m n) 0 <> Int.compare want 0
                || X.Node.same m n <> (want = 0)
              then
                QCheck.Test.fail_reportf "order of %s and %s" (show_nodes [ m ])
                  (show_nodes [ n ]))
            other)
        ctx;
      let module S = X.Seq_ops in
      agree "sort_dedup" (S.sort_dedup ctx) (ref_sort_dedup ctx)
      && agree "union" (S.union ctx other) (ref_sort_dedup (ctx @ other))
      && agree "intersect" (S.intersect ctx other)
           (List.filter (fun n -> ref_member n other) (ref_sort_dedup ctx))
      && agree "except" (S.except ctx other)
           (List.filter
              (fun n -> not (ref_member n other))
              (ref_sort_dedup ctx))
      && agree "maximal" (S.maximal ctx) (ref_maximal ctx))

let () =
  Alcotest.run "xd_lang"
    [
      ( "paths",
        [
          tc "child steps" test_child_steps;
          tc "descendant" test_descendant;
          tc "attributes" test_attribute_step;
          tc "parent" test_parent_step;
          tc "wildcard" test_wildcard;
          tc "text test" test_text_test;
          tc "dedup+order" test_dedup_order;
          tc "reverse input" test_reverse_doc_order;
        ] );
      ( "flwor",
        [
          tc "for/where" test_for_where;
          tc "let" test_let;
          tc "nested for" test_nested_for;
          tc "if" test_if;
          tc "order by" test_order_by;
          tc "predicates" test_predicates;
        ] );
      ( "comparisons",
        [
          tc "general" test_general_comparison;
          tc "type errors" test_type_errors;
          tc "node comparisons" test_node_comparisons;
          tc "node set ops" test_node_set_ops;
          tc "arithmetic" test_arith;
        ] );
      ( "constructors",
        [
          tc "direct" test_direct_constructor;
          tc "computed" test_computed_constructors;
          tc "identity" test_constructor_identity;
          tc "navigation" test_constructed_navigation;
          tc "parentless" test_constructed_parentless;
          tc "by-value copies parentless" test_shipped_copy_parentless;
        ] );
      ("typeswitch", [ tc "cases" test_typeswitch ]);
      ( "functions",
        [
          tc "user functions" test_user_functions;
          tc "builtins" test_builtins;
          tc "doc functions" test_doc_functions;
          tc "id/idref" test_id_idref;
          tc "root" test_root_builtin;
        ] );
      ( "depth",
        [
          tc "multi-key order by" test_multi_key_order_by;
          tc "attributes into constructors" test_copy_attributes_into_constructor;
          tc "constructed base-uri" test_constructed_base_uri;
          tc "boolean comparisons" test_boolean_comparisons;
          tc "attribute node sets" test_attr_node_set_ops;
          tc "axes from attributes" test_axes_from_attributes;
          tc "untyped arithmetic" test_untyped_arithmetic_from_attr;
          tc "function shadowing" test_nested_function_shadowing;
          tc "empty sequences" test_empty_sequences_everywhere;
          tc "sequence EBV" test_if_over_node_ebv;
        ] );
      ( "errors",
        [ tc "dynamic" test_dynamic_errors; tc "parse" test_parse_errors ] );
      ( "invariants",
        [
          tc "unused invariants raise nothing" test_invariant_unused;
          tc "constructors mint per iteration" test_invariant_constructors;
          tc "shadowing" test_invariant_shadowing;
          tc "right operand first" test_invariant_error_order;
          tc "scan order and promotion" test_invariant_promotion;
          tc "function bodies see no loop cache" test_invariant_call_scope;
          prop_invariants_differential;
        ] );
      ( "properties",
        [
          prop_arith_matches_ocaml;
          prop_count_of_seq;
          prop_steps_sorted_dedup;
          prop_document_order;
        ] );
    ]
