(* Tests for the XML substrate: document encoding, axes, document order,
   parsing/serialization, deep-equal and node-sequence operations. *)

module X = Xd_xml
open Util

let sample () =
  xml
    {|<site><people><person id="p1"><name>Ann</name><age>35</age></person><person id="p2"><name>Bob</name><age>52</age></person></people><extra/></site>|}

(* ---- encoding --------------------------------------------------------- *)

let test_counts () =
  let d = sample () in
  check_int "tree nodes" 14 (X.Doc.n_nodes d);
  check_int "attrs" 2 (X.Doc.n_attrs d);
  check_int "doc size covers all" (X.Doc.n_nodes d - 1) d.X.Doc.size.(0)

let test_parent_size_consistency () =
  let d = sample () in
  for i = 1 to X.Doc.n_nodes d - 1 do
    let p = d.X.Doc.parent.(i) in
    check_bool "parent before child" (p >= 0 && p < i);
    check_bool "child within parent extent" (i <= p + d.X.Doc.size.(p))
  done

(* ---- axes ------------------------------------------------------------- *)

let person_nodes d =
  List.filter
    (fun n -> X.Node.name n = "person")
    (X.Node.descendants (X.Node.doc_node d))

let test_children () =
  let d = sample () in
  let site = List.hd (X.Node.children (X.Node.doc_node d)) in
  check_slist "site children" [ "people"; "extra" ]
    (names (X.Node.children site))

let test_parent_axis () =
  let d = sample () in
  let p1 = List.hd (person_nodes d) in
  check_string "parent of person" "people"
    (X.Node.name (Option.get (X.Node.parent p1)));
  let root = X.Node.doc_node d in
  check_bool "doc node has no parent" (X.Node.parent root = None)

let test_attributes () =
  let d = sample () in
  let p1 = List.hd (person_nodes d) in
  let attrs = X.Node.attributes p1 in
  check_int "one attribute" 1 (List.length attrs);
  check_string "attr name" "id" (X.Node.name (List.hd attrs));
  check_string "attr value" "p1" (X.Node.string_value (List.hd attrs));
  check_string "attr parent" "person"
    (X.Node.name (Option.get (X.Node.parent (List.hd attrs))))

let test_descendants () =
  let d = sample () in
  let site = List.hd (X.Node.children (X.Node.doc_node d)) in
  check_int "descendants of site" 12 (List.length (X.Node.descendants site));
  let p2 = List.nth (person_nodes d) 1 in
  check_slist "descendant names"
    [ "name"; ""; "age"; "" ]
    (names (X.Node.descendants p2))

let test_siblings () =
  let d = sample () in
  match person_nodes d with
  | [ p1; p2 ] ->
    check_slist "following sibling" [ "person" ]
      (names (X.Node.following_sibling p1));
    check_slist "preceding sibling" [ "person" ]
      (names (X.Node.preceding_sibling p2));
    check_bool "no preceding sibling of first"
      (X.Node.preceding_sibling p1 = [])
  | _ -> Alcotest.fail "expected two persons"

let test_following_preceding () =
  let d = sample () in
  match person_nodes d with
  | [ p1; p2 ] ->
    let fol = names (X.Node.following p1) in
    check_slist "following of p1"
      [ "person"; "name"; ""; "age"; ""; "extra" ]
      fol;
    let prec = names (X.Node.preceding p2) in
    (* preceding excludes ancestors (site, people, document) *)
    check_slist "preceding of p2"
      [ "person"; "name"; ""; "age"; "" ]
      prec
  | _ -> Alcotest.fail "expected two persons"

let test_ancestors () =
  let d = sample () in
  let p2 = List.nth (person_nodes d) 1 in
  let age = List.nth (X.Node.children p2) 1 in
  check_slist "ancestors in doc order"
    [ ""; "site"; "people"; "person" ]
    (names (X.Node.ancestors age))

(* ---- order and identity ------------------------------------------------ *)

let test_order () =
  let d = sample () in
  let all = X.Node.descendant_or_self (X.Node.doc_node d) in
  let sorted = X.Seq_ops.sort (List.rev all) in
  check_bool "sort restores document order"
    (List.for_all2 X.Node.same all sorted);
  (* attributes sort after their element, before its children *)
  let p1 = List.hd (person_nodes d) in
  let a = List.hd (X.Node.attributes p1) in
  let name_el = List.hd (X.Node.children p1) in
  check_bool "element << attribute" (X.Node.compare_order p1 a < 0);
  check_bool "attribute << first child" (X.Node.compare_order a name_el < 0)

let test_identity_across_docs () =
  let st = store () in
  let d1 = X.Parser.parse ~store:st ~uri:"a.xml" "<a><b/></a>" in
  let d2 = X.Parser.parse ~store:st ~uri:"b.xml" "<a><b/></a>" in
  let n1 = X.Node.of_tree d1 1 and n2 = X.Node.of_tree d2 1 in
  check_bool "distinct docs, distinct identity" (not (X.Node.same n1 n2));
  check_bool "deep-equal despite identity" (X.Deep_equal.equal n1 n2);
  check_bool "doc order follows registration"
    (X.Node.compare_order n1 n2 < 0)

(* ---- seq ops ----------------------------------------------------------- *)

let test_seq_ops () =
  let d = sample () in
  let ps = person_nodes d in
  let dup = ps @ ps in
  check_int "dedup" 2 (List.length (X.Seq_ops.sort_dedup dup));
  check_int "union" 2 (List.length (X.Seq_ops.union ps ps));
  check_int "intersect" 2 (List.length (X.Seq_ops.intersect ps dup));
  check_int "except all" 0 (List.length (X.Seq_ops.except ps ps));
  let p1 = List.hd ps in
  check_int "except one" 1 (List.length (X.Seq_ops.except ps [ p1 ]))

let test_maximal () =
  let d = sample () in
  let site = List.hd (X.Node.children (X.Node.doc_node d)) in
  let ps = person_nodes d in
  let m = X.Seq_ops.maximal (ps @ [ site ]) in
  check_int "maximal collapses to ancestor" 1 (List.length m);
  check_string "maximal root" "site" (X.Node.name (List.hd m))

let test_lca () =
  let d = sample () in
  let ps = person_nodes d in
  check_string "lca of persons" "people"
    (X.Node.name (X.Seq_ops.lowest_common_ancestor ps));
  let p1 = List.hd ps in
  check_string "lca of single" "person"
    (X.Node.name (X.Seq_ops.lowest_common_ancestor [ p1 ]))

(* ---- parser / serializer ------------------------------------------------ *)

let test_roundtrip () =
  let src = {|<a k="v&amp;w"><b>x &lt; y</b><c/><!--note--><?pi data?></a>|} in
  let d = xml ~uri:"r.xml" src in
  check_string "serialize round-trip" src (X.Serializer.doc d)

let test_entities () =
  let d = xml "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>" in
  check_string "entity decoding" "<>&'\"AB"
    (X.Node.string_value (X.Node.doc_node d));
  (* XML 1.0 [66] and [2]: decimal or lowercase-x hex digits only, naming
     a code point in the Char range *)
  let decoded r =
    X.Node.string_value (X.Node.doc_node (xml ("<a>[" ^ r ^ "]</a>")))
  in
  List.iter
    (fun (r, v) -> check_string ("accepted " ^ r) ("[" ^ v ^ "]") (decoded r))
    [
      ("&#65;", "A");
      ("&#x42;", "B");
      ("&#9;", "\t");
      ("&#x1F600;", "\xF0\x9F\x98\x80");
      ("&#1114111;", "\xF4\x8F\xBF\xBF");
    ];
  List.iter
    (fun r ->
      match decoded r with
      | v -> Alcotest.failf "%s accepted as %S" r v
      | exception X.Event.Error (m, _) ->
        check_string ("rejected " ^ r) ("bad character reference " ^ r) m)
    [
      "&#0b1000001;";
      "&#1_0_0;";
      "&#+66;";
      "&#0o101;";
      "&#x4_1;";
      "&#X41;";
      "&#0;";
      "&#xD800;";
      "&#xFFFE;";
      "&#1114112;";
      "&#99999999999999999999999;";
      "&#;";
      "&#x;";
    ]

let test_cdata () =
  let d = xml "<a><![CDATA[<not> &parsed;]]></a>" in
  check_string "cdata" "<not> &parsed;" (X.Node.string_value (X.Node.doc_node d))

let test_strip_ws () =
  let d = xml "<a>\n  <b> x </b>\n</a>" in
  let a = List.hd (X.Node.children (X.Node.doc_node d)) in
  check_int "whitespace-only text stripped" 1 (List.length (X.Node.children a));
  check_string "inner text kept" " x " (X.Node.string_value a)

let test_doctype_and_decl () =
  let d =
    xml
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a><b/></a>"
  in
  check_int "nodes" 3 (X.Doc.n_nodes d)

let test_parse_errors () =
  let bad s =
    match X.Parser.parse_doc s with
    | exception X.Parser.Error _ -> true
    | _ -> false
  in
  check_bool "mismatched tag" (bad "<a></b>");
  check_bool "unterminated" (bad "<a>");
  check_bool "unknown entity" (bad "<a>&nope;</a>");
  check_bool "garbage after root is fine for forests" (not (bad "<a/><b/>"))

let test_text_coalescing () =
  let d = xml "<a>x<![CDATA[y]]>z</a>" in
  let a = List.hd (X.Node.children (X.Node.doc_node d)) in
  check_int "adjacent text coalesced" 1 (List.length (X.Node.children a));
  check_string "coalesced value" "xyz" (X.Node.string_value a)

(* ---- deep-equal --------------------------------------------------------- *)

let test_deep_equal () =
  let n s = X.Node.of_tree (xml s) 1 in
  check_bool "equal" (X.Deep_equal.equal (n "<a k='1'><b/></a>") (n "<a k=\"1\"><b/></a>"));
  check_bool "attr order irrelevant"
    (X.Deep_equal.equal (n "<a x='1' y='2'/>") (n "<a y='2' x='1'/>"));
  check_bool "comments ignored"
    (X.Deep_equal.equal (n "<a><!--c--><b/></a>") (n "<a><b/></a>"));
  check_bool "different attr" (not (X.Deep_equal.equal (n "<a k='1'/>") (n "<a k='2'/>")));
  check_bool "different children" (not (X.Deep_equal.equal (n "<a><b/></a>") (n "<a><c/></a>")));
  check_bool "text differs" (not (X.Deep_equal.equal (n "<a>x</a>") (n "<a>y</a>")))

let test_deep_nesting () =
  (* a few thousand levels of nesting must not overflow the parser or the
     axis machinery *)
  let depth = 5000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<d>"
  done;
  Buffer.add_string buf "<leaf/>";
  for _ = 1 to depth do
    Buffer.add_string buf "</d>"
  done;
  let d = xml (Buffer.contents buf) in
  check_int "all nodes present" (depth + 2) (X.Doc.n_nodes d);
  let leaf = X.Node.of_tree d (depth + 1) in
  check_int "ancestor chain" (depth + 1) (List.length (X.Node.ancestors leaf));
  check_string "round trip survives"
    (X.Serializer.doc d)
    (X.Serializer.doc (X.Parser.parse_doc (X.Serializer.doc d)))

let test_wide_document () =
  let width = 20000 in
  let buf = Buffer.create (width * 4) in
  Buffer.add_string buf "<r>";
  for _ = 1 to width do
    Buffer.add_string buf "<x/>"
  done;
  Buffer.add_string buf "</r>";
  let d = xml (Buffer.contents buf) in
  let r = List.hd (X.Node.children (X.Node.doc_node d)) in
  check_int "children intact" width (List.length (X.Node.children r))

(* raw '<' inside an attribute value is ill-formed (XML production [10]);
   the parser must reject it rather than silently absorb it, so the
   generic and event parsers agree on the rejection set *)
let test_raw_lt_in_attr () =
  let rejects s =
    match X.Parser.parse_doc s with
    | _ -> false
    | exception X.Parser.Error _ -> true
  in
  check_bool "plain value rejected" (rejects {|<a v="x<y"/>|});
  check_bool "single-quoted rejected" (rejects {|<a v='x<y'/>|});
  check_bool "after entity rejected" (rejects {|<a v="x&amp;<y"/>|});
  check_bool "escaped accepted" (not (rejects {|<a v="x&lt;y"/>|}))

(* random bytes through the parser must fail cleanly (Parser.Error), never
   crash or loop *)
let prop_parser_total =
  qtest ~count:300 "parser is total on garbage"
    QCheck.(string_of_size (QCheck.Gen.int_bound 60))
    (fun s ->
      match X.Parser.parse_doc s with
      | _ -> true
      | exception X.Parser.Error _ -> true
      | exception _ -> false)

(* ---- the document builder ---------------------------------------------- *)

(* The reference: drop empty text, merge adjacent text, then number the
   forest directly and recursively in pre-order under a document node. *)
let rec normalise ts =
  List.fold_left
    (fun acc t ->
      match (t, acc) with
      | X.Doc.T "", _ -> acc
      | X.Doc.T s, X.Doc.T prev :: rest -> X.Doc.T (prev ^ s) :: rest
      | X.Doc.E (n, a, cs), _ -> X.Doc.E (n, a, normalise cs) :: acc
      | t, _ -> t :: acc)
    [] ts
  |> List.rev

let reference_doc forest =
  let nodes = ref [ (X.Doc.Document, "", "", -1) ] and count = ref 1 in
  let sizes = Hashtbl.create 16 and attrs = ref [] in
  let rec number parent t =
    let idx = !count in
    incr count;
    let add kind name value = nodes := (kind, name, value, parent) :: !nodes in
    match t with
    | X.Doc.E (name, ats, cs) ->
      add X.Doc.Element name "";
      List.iter (fun (an, av) -> attrs := (idx, an, av) :: !attrs) ats;
      List.iter (number idx) cs;
      Hashtbl.replace sizes idx (!count - idx - 1)
    | X.Doc.T s -> add X.Doc.Text "" s
    | X.Doc.C s -> add X.Doc.Comment "" s
    | X.Doc.P (target, data) -> add X.Doc.Pi target data
  in
  List.iter (number 0) (normalise forest);
  let n = !count in
  let nodes = Array.of_list (List.rev !nodes) in
  let attrs = Array.of_list (List.rev !attrs) in
  let field f = Array.map f nodes and afield f = Array.map f attrs in
  let owner = afield (fun (o, _, _) -> o) in
  {
    X.Doc.did = -1;
    uri = None;
    kind = field (fun (k, _, _, _) -> k);
    name = field (fun (_, nm, _, _) -> nm);
    value = field (fun (_, _, v, _) -> v);
    parent = field (fun (_, _, _, p) -> p);
    size =
      Array.init n (fun i ->
          if i = 0 then n - 1
          else Option.value ~default:0 (Hashtbl.find_opt sizes i));
    attr_owner = owner;
    attr_name = afield (fun (_, an, _) -> an);
    attr_value = afield (fun (_, _, av) -> av);
    attr_first =
      Array.init n (fun i ->
          let rec first k =
            if k = Array.length owner then -1
            else if owner.(k) = i then k
            else first (k + 1)
          in
          first 0);
    attr_count =
      Array.init n (fun i ->
          Array.fold_left (fun c o -> if o = i then c + 1 else c) 0 owner);
  }

let prop_builder_reference =
  qtest ~count:1000 "of_forest numbers the forest like the pre-order reference"
    arb_forest (fun forest ->
      (* unregistered and without a URI, so [=] compares the arrays; a
         document's prolog skips leading whitespace, comments and PIs, so
         the parse round trip runs on the forest under one root *)
      let rooted = X.Doc.of_forest [ X.Doc.E ("root", [], forest) ] in
      X.Doc.of_forest forest = reference_doc forest
      && rooted = X.Parser.parse_doc ~strip_ws:false (X.Serializer.doc rooted))

let test_builder_malformed () =
  let malformed f =
    match f (X.Doc.Builder.create ()) with
    | _ -> false
    | exception X.Doc.Malformed _ -> true
  in
  check_bool "unmatched end_element" (malformed X.Doc.Builder.end_element);
  check_bool "end_element past the open ones"
    (malformed (fun b ->
         X.Doc.Builder.start_element b "a" [];
         X.Doc.Builder.end_element b;
         X.Doc.Builder.end_element b));
  check_bool "finish with an element open"
    (malformed (fun b ->
         X.Doc.Builder.start_element b "a" [];
         ignore (X.Doc.Builder.finish b)))

(* ---- properties --------------------------------------------------------- *)

let prop_roundtrip =
  qtest "serialize ∘ parse ∘ serialize is stable" arb_tree (fun t ->
      let st = store () in
      let d = X.Store.of_tree st (root_of_tree t) in
      let s1 = X.Serializer.doc d in
      let d2 = X.Parser.parse_doc ~strip_ws:false s1 in
      let s2 = X.Serializer.doc d2 in
      s1 = s2)

let prop_size_descendants =
  qtest "size field equals number of descendants" arb_tree (fun t ->
      let st = store () in
      let d = X.Store.of_tree st (root_of_tree t) in
      let ok = ref true in
      for i = 0 to X.Doc.n_nodes d - 1 do
        let n = X.Node.of_tree d i in
        if List.length (X.Node.descendants n) <> d.X.Doc.size.(i) then
          ok := false
      done;
      !ok)

let prop_parent_child_inverse =
  qtest "children/parent are inverse" arb_tree (fun t ->
      let st = store () in
      let d = X.Store.of_tree st (root_of_tree t) in
      let ok = ref true in
      for i = 0 to X.Doc.n_nodes d - 1 do
        let n = X.Node.of_tree d i in
        List.iter
          (fun c ->
            match X.Node.parent c with
            | Some p when X.Node.same p n -> ()
            | _ -> ok := false)
          (X.Node.children n)
      done;
      !ok)

let prop_following_preceding_partition =
  qtest "self+anc+desc+following+preceding partition the doc" arb_tree
    (fun t ->
      let st = store () in
      let d = X.Store.of_tree st (root_of_tree t) in
      let total = X.Doc.n_nodes d in
      let ok = ref true in
      for i = 0 to total - 1 do
        let n = X.Node.of_tree d i in
        let parts =
          1
          + List.length (X.Node.ancestors n)
          + List.length (X.Node.descendants n)
          + List.length (X.Node.following n)
          + List.length (X.Node.preceding n)
        in
        if parts <> total then ok := false
      done;
      !ok)

let prop_deep_equal_reflexive =
  qtest "deep-equal is reflexive on fresh copies" arb_tree (fun t ->
      let st = store () in
      let d1 = X.Store.of_tree st (root_of_tree t) in
      let d2 = X.Store.of_tree st (root_of_tree t) in
      X.Deep_equal.equal (X.Node.doc_node d1) (X.Node.doc_node d2))

let () =
  Alcotest.run "xd_xml"
    [
      ( "encoding",
        [ tc "counts" test_counts; tc "parent/size" test_parent_size_consistency ] );
      ( "axes",
        [
          tc "children" test_children;
          tc "parent" test_parent_axis;
          tc "attributes" test_attributes;
          tc "descendants" test_descendants;
          tc "siblings" test_siblings;
          tc "following/preceding" test_following_preceding;
          tc "ancestors" test_ancestors;
        ] );
      ( "order",
        [ tc "document order" test_order; tc "cross-doc" test_identity_across_docs ] );
      ( "seq-ops",
        [ tc "dedup/set-ops" test_seq_ops; tc "maximal" test_maximal; tc "lca" test_lca ] );
      ( "parser",
        [
          tc "round-trip" test_roundtrip;
          tc "entities" test_entities;
          tc "cdata" test_cdata;
          tc "strip-ws" test_strip_ws;
          tc "doctype" test_doctype_and_decl;
          tc "errors" test_parse_errors;
          tc "raw-lt-in-attr" test_raw_lt_in_attr;
          tc "text-coalescing" test_text_coalescing;
        ] );
      ( "builder",
        [ tc "malformed" test_builder_malformed; prop_builder_reference ] );
      ("deep-equal", [ tc "cases" test_deep_equal ]);
      ( "robustness",
        [
          tc "deep nesting" test_deep_nesting;
          tc "wide document" test_wide_document;
          prop_parser_total;
        ] );
      ( "properties",
        [
          prop_roundtrip;
          prop_size_descendants;
          prop_parent_child_inverse;
          prop_following_preceding_partition;
          prop_deep_equal_reflexive;
        ] );
    ]
