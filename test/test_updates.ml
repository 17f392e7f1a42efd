(* Tests for the XQUF subset (the paper's Section IX future work):
   local update semantics (pending update list, snapshot application) and
   the distribution restriction — an update executes at the single peer
   owning its target, or is rejected. *)

module X = Xd_xml
module S = Xd_core.Strategy
module E = Xd_core.Executor
module V = Xd_lang.Value
open Util

(* run an updating query against a store, return the (re-resolved) doc *)
let run_update doc_xml query =
  let st = store () in
  let _ = X.Parser.parse ~store:st ~uri:"d.xml" doc_xml in
  let _ = Xd_lang.Eval.run st query in
  Option.get (X.Store.find_uri st "d.xml")

let doc_str d = X.Serializer.doc d

(* ---- local semantics -------------------------------------------------- *)

let test_insert_into () =
  let d = run_update "<r><a/></r>" {|insert node <b>x</b> into doc("d.xml")/r/a|} in
  check_string "appended as last child" "<r><a><b>x</b></a></r>" (doc_str d)

let test_insert_before_after () =
  let d =
    run_update "<r><a/><c/></r>"
      {|(insert node <b0/> before doc("d.xml")/r/c,
         insert node <b1/> after doc("d.xml")/r/c)|}
  in
  check_string "before and after" "<r><a/><b0/><c/><b1/></r>" (doc_str d)

let test_delete () =
  let d =
    run_update "<r><a/><b/><a/></r>" {|delete node doc("d.xml")/r/a|}
  in
  check_string "all targets deleted" "<r><b/></r>" (doc_str d)

let test_delete_attribute () =
  let d =
    run_update {|<r><a k="1" m="2"/></r>|} {|delete node doc("d.xml")/r/a/@k|}
  in
  check_string "attribute deleted" {|<r><a m="2"/></r>|} (doc_str d)

let test_replace_value () =
  let d =
    run_update "<r><a>old</a></r>"
      {|replace value of node doc("d.xml")/r/a with "new"|}
  in
  check_string "element value replaced" "<r><a>new</a></r>" (doc_str d)

let test_replace_attr_value () =
  let d =
    run_update {|<r><a k="1"/></r>|}
      {|replace value of node doc("d.xml")/r/a/@k with 42|}
  in
  check_string "attribute value replaced" {|<r><a k="42"/></r>|} (doc_str d)

let test_rename () =
  let d =
    run_update "<r><old><x/></old></r>"
      {|rename node doc("d.xml")/r/old as "new"|}
  in
  check_string "element renamed, children kept" "<r><new><x/></new></r>"
    (doc_str d)

let test_insert_copies_content () =
  (* inserted nodes are copies: mutating the source later is irrelevant,
     and the inserted subtree has fresh identity *)
  let st = store () in
  let _ = X.Parser.parse ~store:st ~uri:"d.xml" "<r><src><k/></src><dst/></r>" in
  let v =
    Xd_lang.Eval.run st
      {|(insert node doc("d.xml")/r/src into doc("d.xml")/r/dst,
         count(doc("d.xml")/r/dst/src))|}
  in
  (* snapshot semantics: the count sees the PRE-update document *)
  check_string "result is pre-update" "0" (V.serialize v);
  let d = Option.get (X.Store.find_uri st "d.xml") in
  check_string "post-update content" "<r><src><k/></src><dst><src><k/></src></dst></r>"
    (doc_str d)

let test_snapshot_semantics () =
  let st = store () in
  let _ = X.Parser.parse ~store:st ~uri:"d.xml" "<r><a>1</a></r>" in
  let v =
    Xd_lang.Eval.run st
      {|(replace value of node doc("d.xml")/r/a with "2", string(doc("d.xml")/r/a))|}
  in
  check_string "query sees old value" "1" (V.serialize v);
  check_string "store sees new value" "2"
    (Xd_lang.Value.serialize (Xd_lang.Eval.run st {|string(doc("d.xml")/r/a)|}))

let test_multiple_updates_one_doc () =
  let d =
    run_update "<r><a>1</a><b>2</b><c/></r>"
      {|(replace value of node doc("d.xml")/r/a with "x",
         delete node doc("d.xml")/r/b,
         insert node <d/> into doc("d.xml")/r,
         rename node doc("d.xml")/r/c as "cc")|}
  in
  check_string "all applied" "<r><a>x</a><cc/><d/></r>" (doc_str d)

let test_updated_doc_well_formed () =
  (* the rebuilt document has consistent parent/size arrays *)
  let d =
    run_update "<r><a><b/><c/></a><d/></r>"
      {|(insert node <n><m/></n> into doc("d.xml")/r/a, delete node doc("d.xml")/r/d)|}
  in
  for i = 1 to X.Doc.n_nodes d - 1 do
    let p = d.X.Doc.parent.(i) in
    check_bool "parent valid" (p >= 0 && p < i);
    check_bool "extent valid" (i + d.X.Doc.size.(i) <= p + d.X.Doc.size.(p))
  done;
  (* and queries over it still work *)
  let st = store () in
  let _ = X.Store.add st (X.Parser.parse_doc ~uri:"x" (doc_str d)) in
  ()

(* XQUF 1.0 §3.2.2 application order: inserts apply before deletes, and
   an element's content replacement applies after inserts *)
let test_insert_survives_delete () =
  let d =
    run_update "<r><a/><c/></r>"
      {|(insert node <b/> before doc("d.xml")/r/c, delete node doc("d.xml")/r/c)|}
  in
  check_string "content inserted before a deleted node stays" "<r><a/><b/></r>"
    (doc_str d);
  let d =
    run_update "<r>x<c/>y</r>"
      {|(delete node doc("d.xml")/r/c, insert node "m" after doc("d.xml")/r/c)|}
  in
  check_string "and its text merges with both neighbours" "<r>xmy</r>" (doc_str d)

let test_replace_drops_inserted () =
  let d =
    run_update "<r><a/></r>"
      {|(insert node <x/> into doc("d.xml")/r/a,
         replace value of node doc("d.xml")/r/a with "v")|}
  in
  check_string "content inserted into a replaced element is dropped"
    "<r><a>v</a></r>" (doc_str d)

let test_replace_pi_value () =
  let d =
    run_update "<r><?go data?></r>"
      {|replace value of node doc("d.xml")/r/node() with "new"|}
  in
  check_string "PI content replaced" "<r><?go new?></r>" (doc_str d)

let test_readonly_context_rejects () =
  let st = store () in
  let _ = X.Parser.parse ~store:st ~uri:"d.xml" "<r/>" in
  let q = Xd_lang.Parser.parse_query {|delete node doc("d.xml")/r|} in
  let env = Xd_lang.Eval.default_env st in
  check_bool "no PUL, updating expression raises"
    (match Xd_lang.Eval.eval env q.Xd_lang.Ast.body with
    | exception Xd_lang.Env.Dynamic_error _ -> true
    | _ -> false)

let mentions text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* XQUF 1.0 types each update's target: one of the wrong kind, or an
   insert before/after a node without a parent, is an error raised while
   the pending update list is built, named by its error code, and the
   document stays as it was. A delete of a parentless node does nothing. *)
let test_mistyped_targets () =
  let xml = {|<r k="1">t<!--c--></r>|} in
  List.iter
    (fun (query, code) ->
      let st = store () in
      let _ = X.Parser.parse ~store:st ~uri:"d.xml" xml in
      (match Xd_lang.Eval.run st query with
      | exception Xd_lang.Env.Dynamic_error m ->
        check_bool (Printf.sprintf "%s: %s names %s" query m code)
          (mentions m ("err:" ^ code))
      | _ -> Alcotest.failf "%s: no error" query);
      check_string (query ^ ": document unchanged") xml
        (doc_str (Option.get (X.Store.find_uri st "d.xml"))))
    [
      ({|rename node doc("d.xml")/r/text() as "x"|}, "XUTY0012");
      ({|rename node doc("d.xml")/r/comment() as "x"|}, "XUTY0012");
      ({|rename node doc("d.xml") as "x"|}, "XUTY0012");
      ({|replace value of node doc("d.xml") with "v"|}, "XUTY0008");
      ({|insert node <y/> before doc("d.xml")|}, "XUDY0029");
      ({|insert node <y/> after doc("d.xml")|}, "XUDY0029");
      ({|insert node <z/> before <y/>|}, "XUDY0029");
      ({|insert node <z/> after text {"t"}|}, "XUDY0029");
      ({|insert node <y/> before doc("d.xml")/r/@k|}, "XUTY0006");
      ({|insert node <y/> into doc("d.xml")/r/text()|}, "XUTY0005");
      ({|insert node <y/> into doc("d.xml")/r/comment()|}, "XUTY0005");
    ];
  let d = run_update xml {|delete node doc("d.xml")|} in
  check_string "delete of a parentless node does nothing" xml (doc_str d)

let test_update_parses_and_prints () =
  let roundtrip src =
    let e = Xd_lang.Parser.parse_expr_string src in
    let s1 = Xd_lang.Pp.expr_to_string e in
    let s2 = Xd_lang.Pp.expr_to_string (Xd_lang.Parser.parse_expr_string s1) in
    check_string ("pp fixpoint: " ^ src) s1 s2
  in
  List.iter roundtrip
    [
      {|insert node <a/> into doc("d.xml")/r|};
      {|insert node <a/> before doc("d.xml")/r/x|};
      {|delete node doc("d.xml")/r/x|};
      {|replace value of node doc("d.xml")/r/x with "v"|};
      {|rename node doc("d.xml")/r/x as "y"|};
    ]

(* ---- array edits against a node-by-node rebuild ------------------------ *)

(* The reference: walk the old tree in pre-order and emit the new
   document node by node through the builder, consulting per-target edit
   tables. Later renames and values of a target win; inserted content
   accumulates. XQUF order: content inserted before or after a node
   survives its delete, and a replaced element drops what was inserted
   into it. *)
let rebuild (d : X.Doc.t) (edits : Xd_lang.Pul.pending list) : X.Doc.t =
  let module P = Xd_lang.Pul in
  let deletes = Hashtbl.create 8 in
  let inserts = Hashtbl.create 8 in
  let replacements = Hashtbl.create 8 in
  let renames = Hashtbl.create 8 in
  let attr_deletes = Hashtbl.create 8 in
  let attr_replacements = Hashtbl.create 8 in
  let attr_renames = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let n = P.target_of p in
      let idx = X.Node.index n in
      if X.Node.is_attribute n then
        let key = (idx, X.Node.name n) in
        match p with
        | P.P_delete _ -> Hashtbl.replace attr_deletes key ()
        | P.P_replace_value (_, s) -> Hashtbl.replace attr_replacements key s
        | P.P_rename (_, nm) -> Hashtbl.replace attr_renames key nm
        | P.P_insert _ -> Alcotest.fail "insert into an attribute"
      else
        match p with
        | P.P_delete _ -> Hashtbl.replace deletes idx ()
        | P.P_insert (_, pos, content) ->
          let prev = Hashtbl.find_opt inserts (idx, pos) in
          Hashtbl.replace inserts (idx, pos)
            (Option.value ~default:[] prev @ content)
        | P.P_replace_value (_, s) -> Hashtbl.replace replacements idx s
        | P.P_rename (_, nm) -> Hashtbl.replace renames idx nm)
    edits;
  let b = X.Doc.Builder.create ?uri:(X.Doc.uri d) () in
  let rec tree = function
    | X.Doc.E (n, attrs, kids) ->
      X.Doc.Builder.start_element b n attrs;
      List.iter tree kids;
      X.Doc.Builder.end_element b
    | X.Doc.T s -> X.Doc.Builder.text b s
    | X.Doc.C s -> X.Doc.Builder.comment b s
    | X.Doc.P (t, v) -> X.Doc.Builder.pi b t v
  in
  let inserted i pos =
    List.iter tree (Option.value ~default:[] (Hashtbl.find_opt inserts (i, pos)))
  in
  let find tbl k dflt = Option.value ~default:dflt (Hashtbl.find_opt tbl k) in
  let rec emit i =
    inserted i Xd_lang.Ast.Before;
    (if not (Hashtbl.mem deletes i) then
       match d.X.Doc.kind.(i) with
       | X.Doc.Element ->
         let attrs =
           List.filter_map
             (fun k ->
               let an = d.X.Doc.attr_name.(k) in
               if Hashtbl.mem attr_deletes (i, an) then None
               else
                 Some
                   ( find attr_renames (i, an) an,
                     find attr_replacements (i, an) d.X.Doc.attr_value.(k) ))
             (List.init d.X.Doc.attr_count.(i) (fun k ->
                  d.X.Doc.attr_first.(i) + k))
         in
         X.Doc.Builder.start_element b (find renames i d.X.Doc.name.(i)) attrs;
         (match Hashtbl.find_opt replacements i with
         | Some s -> X.Doc.Builder.text b s
         | None ->
           emit_children i;
           inserted i Xd_lang.Ast.Into);
         X.Doc.Builder.end_element b
       | X.Doc.Text ->
         X.Doc.Builder.text b (find replacements i d.X.Doc.value.(i))
       | X.Doc.Comment ->
         X.Doc.Builder.comment b (find replacements i d.X.Doc.value.(i))
       | X.Doc.Pi ->
         X.Doc.Builder.pi b (find renames i d.X.Doc.name.(i))
           (find replacements i d.X.Doc.value.(i))
       | X.Doc.Document -> emit_children i);
    inserted i Xd_lang.Ast.After
  and emit_children i =
    let stop = i + d.X.Doc.size.(i) in
    let j = ref (i + 1) in
    while !j <= stop do
      emit !j;
      j := !j + d.X.Doc.size.(!j) + 1
    done
  in
  emit_children 0;
  inserted 0 Xd_lang.Ast.Into;
  X.Doc.Builder.finish b

(* A generated primitive, on a tree node's pre index or an attribute
   index of the document it was drawn for. *)
type target = Tree of int | Attr of int

type prim =
  | Ins of int * Xd_lang.Ast.insert_pos * X.Doc.tree list
  | Del of target
  | Val of target * string
  | Ren of target * string

let node_of d = function
  | Tree i -> X.Node.of_tree d i
  | Attr a -> X.Node.of_attr d a

let pending d = function
  | Ins (i, pos, c) -> Xd_lang.Pul.P_insert (X.Node.of_tree d i, pos, c)
  | Del t -> Xd_lang.Pul.P_delete (node_of d t)
  | Val (t, s) -> Xd_lang.Pul.P_replace_value (node_of d t, s)
  | Ren (t, s) -> Xd_lang.Pul.P_rename (node_of d t, s)

let print_prim =
  let tgt = function
    | Tree i -> string_of_int i
    | Attr a -> "@" ^ string_of_int a
  in
  let print_tree = Option.get (QCheck.get_print arb_tree) in
  function
  | Ins (i, pos, c) ->
    Printf.sprintf "insert [%s] %s %d"
      (String.concat ", " (List.map print_tree c))
      (match pos with
      | Xd_lang.Ast.Before -> "before"
      | Xd_lang.Ast.After -> "after"
      | Xd_lang.Ast.Into -> "into")
      i
  | Del t -> "delete " ^ tgt t
  | Val (t, s) -> Printf.sprintf "value %s %S" (tgt t) s
  | Ren (t, s) -> Printf.sprintf "rename %s %S" (tgt t) s

(* The arrays a slot-only primitive writes, by field name; [None] when
   the primitive changes structure. *)
let slot_writes (d : X.Doc.t) = function
  | Ins _ | Del (Tree _) -> None
  | Del (Attr _) ->
    Some [ "attr_owner"; "attr_name"; "attr_value"; "attr_first"; "attr_count" ]
  | Ren (Attr _, _) -> Some [ "attr_name" ]
  | Val (Attr _, _) -> Some [ "attr_value" ]
  | Ren (Tree i, _) -> (
    match d.X.Doc.kind.(i) with
    | X.Doc.Element | X.Doc.Pi -> Some [ "name" ]
    | _ -> Some [])
  | Val (Tree i, s) -> (
    match d.X.Doc.kind.(i) with
    | X.Doc.Comment | X.Doc.Pi -> Some [ "value" ]
    | X.Doc.Text when s <> "" -> Some [ "value" ]
    | X.Doc.Element
      when s <> "" && d.X.Doc.size.(i) = 1 && d.X.Doc.kind.(i + 1) = X.Doc.Text ->
      Some [ "value" ]
    | _ -> None)

(* the ten arrays by field name: is each the same array in [a] and [b]? *)
let shared (a : X.Doc.t) (b : X.Doc.t) =
  X.Doc.
    [
      ("kind", a.kind == b.kind); ("name", a.name == b.name);
      ("value", a.value == b.value); ("parent", a.parent == b.parent);
      ("size", a.size == b.size); ("attr_owner", a.attr_owner == b.attr_owner);
      ("attr_name", a.attr_name == b.attr_name);
      ("attr_value", a.attr_value == b.attr_value);
      ("attr_first", a.attr_first == b.attr_first);
      ("attr_count", a.attr_count == b.attr_count);
    ]

let copy (d : X.Doc.t) =
  X.Doc.
    {
      d with
      kind = Array.copy d.kind; name = Array.copy d.name;
      value = Array.copy d.value; parent = Array.copy d.parent;
      size = Array.copy d.size; attr_owner = Array.copy d.attr_owner;
      attr_name = Array.copy d.attr_name; attr_value = Array.copy d.attr_value;
      attr_first = Array.copy d.attr_first; attr_count = Array.copy d.attr_count;
    }

(* Random primitives over a document: targets drawn from a few nodes so
   that several edits meet on one target; deletes drawn among nodes with
   text on both sides; content with text at both ends; empty and
   non-empty values. [slots] draws slot edits only. *)
let gen_prims ~slots (d : X.Doc.t) =
  let open QCheck.Gen in
  let n = X.Doc.n_nodes d and na = X.Doc.n_attrs d in
  let text_at i = i > 0 && i < n && d.X.Doc.kind.(i) = X.Doc.Text in
  let between_text =
    List.filter
      (fun i ->
        let next = i + d.X.Doc.size.(i) + 1 in
        text_at (i - 1) && d.X.Doc.parent.(i - 1) = d.X.Doc.parent.(i)
        && text_at next && d.X.Doc.parent.(next) = d.X.Doc.parent.(i))
      (List.init (max 0 (n - 1)) (fun i -> i + 1))
  in
  let* focus = list_size (int_range 1 3) (int_bound (n - 1)) in
  let tree_target = frequency [ (3, oneofl focus); (1, int_bound (n - 1)) ] in
  let target =
    if na = 0 then map (fun i -> Tree i) tree_target
    else
      frequency
        [
          (3, map (fun i -> Tree i) tree_target);
          (1, map (fun a -> Attr a) (int_bound (na - 1)));
        ]
  in
  let value = oneofl [ ""; "v"; "w x"; " " ] in
  let name = oneofl [ "a"; "nm"; "go" ] in
  let content =
    let item =
      oneofl
        [
          X.Doc.T ""; X.Doc.T "s"; X.Doc.C "c"; X.Doc.P ("p", "d");
          X.Doc.E ("n", [ ("k", "v") ], [ X.Doc.T "in" ]); X.Doc.E ("m", [], []);
        ]
    in
    frequency
      [
        (2, list_size (int_bound 3) item);
        ( 1,
          map3
            (fun l mid r -> (X.Doc.T l :: mid) @ [ X.Doc.T r ])
            (oneofl [ "l"; "" ])
            (list_size (int_bound 2) item)
            (oneofl [ "r"; "" ]) );
      ]
  in
  let slot =
    let* t = target in
    let* s = value in
    let* nm = name in
    let* r = float_bound_exclusive 1. in
    match (t, r) with
    | Attr _, r when r < 0.2 -> return (Del t)
    | _, r when r < 0.5 -> return (Ren (t, nm))
    | _ ->
      (* a value that would change structure becomes a rename *)
      return (if slot_writes d (Val (t, s)) = None then Ren (t, nm) else Val (t, s))
  in
  let any =
    frequency
      [
        (3, map3 (fun i pos c -> Ins (i, pos, c))
              (frequency [ (4, tree_target); (1, return 0) ])
              (oneofl Xd_lang.Ast.[ Before; After; Into ])
              content);
        (2, map (fun t -> Del t) target);
        ( (if between_text = [] then 0 else 2),
          map (fun i -> Del (Tree i)) (oneofl (if between_text = [] then [ 0 ] else between_text))
        );
        (3, map2 (fun t s -> Val (t, s)) target value);
        (2, map2 (fun t s -> Ren (t, s)) target name);
      ]
  in
  if n = 1 then map (fun c -> [ Ins (0, Xd_lang.Ast.Into, c) ]) content
  else list_size (int_range 1 6) (if slots then slot else any)

let arb_splice =
  let open QCheck.Gen in
  let gen =
    let* forest = gen_forest in
    let d = X.Doc.of_forest forest in
    let* slots = bool in
    let* prims = gen_prims ~slots d in
    return (forest, prims)
  in
  let print_forest = Option.get (QCheck.get_print arb_forest) in
  QCheck.make
    ~print:(fun (forest, prims) ->
      print_forest forest ^ "\n  "
      ^ String.concat "; " (List.map print_prim prims))
    gen

let prop_splice =
  qtest ~count:1000 "array edits match the rebuild" arb_splice
    (fun (forest, prims) ->
      let d = X.Doc.of_forest forest in
      let before = copy d in
      let pul = List.map (pending d) prims in
      let spliced = Xd_lang.Update.apply_to_doc d pul in
      let written =
        List.fold_left
          (fun acc p ->
            match (acc, slot_writes d p) with
            | Some ws, Some w -> Some (w @ ws)
            | _ -> None)
          (Some []) prims
      in
      (* unregistered, so [=] compares the uri and the ten arrays *)
      spliced = rebuild d pul
      && d = before
      &&
      match written with
      | None -> true
      | Some ws ->
        List.for_all (fun (f, same) -> same || List.mem f ws) (shared d spliced))

(* ---- distribution ------------------------------------------------------- *)

let make_net () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let a = Xd_xrpc.Network.new_peer net "peerA" in
  let b = Xd_xrpc.Network.new_peer net "peerB" in
  ignore
    (Xd_xrpc.Peer.load_xml a ~doc_name:"inv.xml"
       {|<inventory><item sku="s1"><stock>5</stock></item><item sku="s2"><stock>0</stock></item></inventory>|});
  ignore (Xd_xrpc.Peer.load_xml b ~doc_name:"log.xml" {|<log/>|});
  (net, client, a, b)

let test_remote_update_pushed () =
  let net, client, a, _ = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|for $i in doc("xrpc://peerA/inv.xml")/child::inventory/child::item
        return if ($i/child::stock = 0) then delete node $i else ()|}
  in
  let plan = Xd_core.Decompose.decompose S.By_fragment q in
  (* the whole loop is wrapped in an execute-at at peerA *)
  let pushed = ref [] in
  Xd_lang.Ast.iter
    (fun e ->
      match e.Xd_lang.Ast.desc with
      | Xd_lang.Ast.Execute_at x -> (
        match x.Xd_lang.Ast.host.Xd_lang.Ast.desc with
        | Xd_lang.Ast.Literal (Xd_lang.Ast.A_string h) -> pushed := h :: !pushed
        | _ -> ())
      | _ -> ())
    plan.Xd_core.Decompose.query.Xd_lang.Ast.body;
  check_bool "update pushed to peerA" (List.mem "peerA" !pushed);
  (* and executing it really mutates peerA's document *)
  let _ = E.run net ~client S.By_fragment q in
  let d = Option.get (Xd_xrpc.Peer.find_doc a "inv.xml") in
  check_string "out-of-stock item deleted at the source peer"
    {|<inventory><item sku="s1"><stock>5</stock></item></inventory>|}
    (X.Serializer.doc d)

let test_update_entangled_rejected () =
  (* a single update whose target mixes two hosts: no single affected peer *)
  let net, _, _, _ = make_net () in
  ignore net;
  let q =
    Xd_lang.Parser.parse_query
      {|delete node (doc("xrpc://peerA/inv.xml")/child::inventory/child::item
                     union doc("xrpc://peerB/log.xml")/child::log)[1]|}
  in
  check_bool "placement rejected"
    (match Xd_core.Decompose.decompose S.By_fragment q with
    | exception Xd_core.Decompose.Update_placement _ -> true
    | _ -> false)

let test_data_shipping_update_guard () =
  (* under pure data shipping the update would hit a fetched copy: the
     session must refuse rather than silently diverge *)
  let net, client, a, _ = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|delete node (doc("xrpc://peerA/inv.xml")/child::inventory/child::item)[2]|}
  in
  check_bool "fetched-copy update refused"
    (match E.run net ~client S.Data_shipping q with
    | exception Xd_lang.Env.Dynamic_error _ -> true
    | _ -> false);
  (* the source document is untouched *)
  let d = Option.get (Xd_xrpc.Peer.find_doc a "inv.xml") in
  check_int "still two items" 2
    (List.length
       (List.filter
          (fun n -> X.Node.name n = "item")
          (X.Node.descendants (X.Node.doc_node d))))

let test_remote_update_with_local_values () =
  (* atomic values may cross the wire into an update (replace with) —
     only node targets are pinned *)
  let net, client, a, _ = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|for $i in doc("xrpc://peerA/inv.xml")/child::inventory/child::item
        return if ($i/attribute::sku = "s1")
               then replace value of node $i/child::stock with 99 else ()|}
  in
  let _ = E.run net ~client S.By_projection q in
  let d = Option.get (Xd_xrpc.Peer.find_doc a "inv.xml") in
  check_bool "replacement applied at the peer"
    (let s = X.Serializer.doc d in
     let sub = "<stock>99</stock>" in
     let n = String.length sub in
     let found = ref false in
     for i = 0 to String.length s - n do
       if String.sub s i n = sub then found := true
     done;
     !found)

let test_server_refuses_update_on_shipped_param () =
  (* a hand-written remote body that tries to update its own (shipped)
     parameter: the server's foreign-copy guard must refuse *)
  let net, client, a, _ = make_net () in
  ignore a;
  ignore (Xd_xrpc.Peer.load_xml client ~doc_name:"mine.xml" "<r><x/></r>");
  let session = Xd_xrpc.Session.create net client Xd_xrpc.Message.By_fragment in
  let q =
    Xd_lang.Parser.parse_query
      {|let $n := doc("mine.xml")/child::r/child::x
        return execute at {"peerA"} function ($p := $n) { delete node $p }|}
  in
  check_bool "server refuses to update a shipped parameter"
    (* the server-side refusal (a dynamic error) now travels back as a
       typed, non-retryable application fault *)
    (match Xd_xrpc.Session.execute session q with
    | exception
        Xd_xrpc.Message.Xrpc_fault
          { code = Xd_xrpc.Message.App_dynamic; _ } ->
      true
    | _ -> false);
  (* the client's original document is untouched *)
  let d = Option.get (Xd_xrpc.Peer.find_doc client "mine.xml") in
  check_string "original intact" "<r><x/></r>" (X.Serializer.doc d)

(* The same typing, where the decomposer pushes the update to the peer
   owning its target: the peer's error comes back as an application
   fault, and the peer's document is untouched. *)
let test_remote_mistyped_target () =
  let net, client, a, _ = make_net () in
  let q =
    Xd_lang.Parser.parse_query
      {|rename node (doc("xrpc://peerA/inv.xml")/child::inventory/child::item)[1]/child::stock/child::text() as "x"|}
  in
  let plan = Xd_core.Decompose.decompose S.By_projection q in
  check_slist "pushed to the owner" [ "peerA" ]
    (List.map snd plan.Xd_core.Decompose.inserted);
  let inv () =
    X.Serializer.doc (Option.get (Xd_xrpc.Peer.find_doc a "inv.xml"))
  in
  let before = inv () in
  (match E.run net ~client S.By_projection q with
  | exception
      Xd_xrpc.Message.Xrpc_fault
        { code = Xd_xrpc.Message.App_dynamic; reason; _ } ->
    check_bool ("fault names XUTY0012: " ^ reason)
      (mentions reason "err:XUTY0012")
  | _ -> Alcotest.fail "renaming a text node at peerA raised no fault");
  check_string "peer document unchanged" before (inv ())

let test_local_update_stays_local () =
  let net, client, _, _ = make_net () in
  ignore
    (Xd_xrpc.Peer.load_xml client ~doc_name:"local.xml" "<notes><n/></notes>");
  let q =
    Xd_lang.Parser.parse_query
      {|insert node <n2/> into doc("local.xml")/child::notes|}
  in
  let r = E.run net ~client S.By_fragment q in
  check_int "no messages for a local update" 0 r.E.timing.E.messages;
  let d = Option.get (Xd_xrpc.Peer.find_doc client "local.xml") in
  check_string "applied locally" "<notes><n/><n2/></notes>" (X.Serializer.doc d)

let () =
  Alcotest.run "xd_updates"
    [
      ( "local",
        [
          tc "insert into" test_insert_into;
          tc "insert before/after" test_insert_before_after;
          tc "delete" test_delete;
          tc "delete attribute" test_delete_attribute;
          tc "replace value" test_replace_value;
          tc "replace attribute value" test_replace_attr_value;
          tc "rename" test_rename;
          tc "insert copies" test_insert_copies_content;
          tc "snapshot semantics" test_snapshot_semantics;
          tc "multiple updates" test_multiple_updates_one_doc;
          tc "well-formed result" test_updated_doc_well_formed;
          tc "read-only context" test_readonly_context_rejects;
          tc "syntax round-trip" test_update_parses_and_prints;
          tc "insert survives delete" test_insert_survives_delete;
          tc "replace drops inserted" test_replace_drops_inserted;
          tc "replace PI value" test_replace_pi_value;
          tc "mistyped targets" test_mistyped_targets;
        ] );
      ("splice", [ prop_splice ]);
      ( "distribution",
        [
          tc "pushed to owner" test_remote_update_pushed;
          tc "entangled rejected" test_update_entangled_rejected;
          tc "data-shipping guard" test_data_shipping_update_guard;
          tc "values cross, targets don't" test_remote_update_with_local_values;
          tc "local stays local" test_local_update_stays_local;
          tc "server refuses shipped-param update"
            test_server_refuses_update_on_shipped_param;
          tc "mistyped remote target" test_remote_mistyped_target;
        ] );
    ]
