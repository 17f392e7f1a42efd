(* Shared helpers for the test suites. *)

module X = Xd_xml

let check = Alcotest.check
let check_bool msg b = Alcotest.check Alcotest.bool msg true b
let check_slist = Alcotest.(check (list string))
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let tc name f = Alcotest.test_case name `Quick f

let store () = X.Store.create ()

(* Parse an XML string into a fresh store. *)
let xml ?(uri = "test.xml") s =
  let st = store () in
  X.Parser.parse ~store:st ~uri s

(* Evaluate a query against a store and serialize the result. *)
let eval_str st q = Xd_lang.Value.serialize (Xd_lang.Eval.run st q)

(* Evaluate a query over a single document given as XML text. *)
let eval_on_doc ?(uri = "test.xml") doc_xml q =
  let st = store () in
  let _ = X.Parser.parse ~store:st ~uri doc_xml in
  eval_str st q

let names ns = List.map X.Node.name ns

(* QCheck: random XML trees, of a given size or of QCheck's default. *)
let sized_tree =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let attr = oneofl [ []; [ ("id", "x1") ]; [ ("k", "v"); ("id", "y2") ] ] in
  let text = oneofl [ "t"; "hello"; "42"; "x<y&z" ] in
  fix (fun self n ->
      if n <= 0 then map (fun t -> X.Doc.T t) text
      else
        frequency
          [
            (1, map (fun t -> X.Doc.T t) text);
            ( 3,
              map3
                (fun name attrs children -> X.Doc.E (name, attrs, children))
                tag attr
                (list_size (int_bound 4) (self (n / 2))) );
          ])

let gen_tree = QCheck.Gen.sized sized_tree

let arb_tree =
  let rec print = function
    | X.Doc.E (n, attrs, cs) ->
      Printf.sprintf "<%s%s>%s</%s>" n
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) attrs))
        (String.concat "" (List.map print cs))
        n
    | X.Doc.T t -> t
    | X.Doc.C c -> Printf.sprintf "<!--%s-->" c
    | X.Doc.P (t, d) -> Printf.sprintf "<?%s %s?>" t d
  in
  QCheck.make ~print gen_tree

(* Wrap a generated tree in a root element so it is a well-formed document. *)
let root_of_tree t = X.Doc.E ("root", [], [ t ])

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)
