(* Node construction: element/attribute/text/document constructors create
   fresh documents in the evaluating store. Per XQuery semantics a
   constructor copies its node content deeply, and the result has a fresh
   node identity — the same operation an XRPC peer performs when shredding
   a message, which is why pass-by-value "feels like" construction and
   loses identity. *)

module X = Xd_xml

let rec copy_into b n =
  match X.Node.kind n with
  | X.Node.Document -> List.iter (copy_into b) (X.Node.children n)
  | X.Node.Element ->
    let attrs =
      List.map
        (fun a -> (X.Node.name a, X.Node.string_value a))
        (X.Node.attributes n)
    in
    X.Doc.Builder.start_element b (X.Node.name n) attrs;
    List.iter (copy_into b) (X.Node.children n);
    X.Doc.Builder.end_element b
  | X.Node.Text -> X.Doc.Builder.text b (X.Node.string_value n)
  | X.Node.Comment -> X.Doc.Builder.comment b (X.Node.string_value n)
  | X.Node.Pi -> X.Doc.Builder.pi b (X.Node.name n) (X.Node.string_value n)
  | X.Node.Attribute ->
    (* bare attribute in content: becomes text (checked by callers) *)
    X.Doc.Builder.text b (X.Node.string_value n)

(* Split constructor content into attributes and proper content, joining
   adjacent atoms with a single space (XQuery content rules). *)
let split_content (items : Value.t) =
  let attrs = ref [] in
  let content = ref [] in
  List.iter
    (fun it ->
      match it with
      | Value.N n when X.Node.kind n = X.Node.Attribute ->
        attrs := (X.Node.name n, X.Node.string_value n) :: !attrs
      | _ -> content := it :: !content)
    items;
  (List.rev !attrs, List.rev !content)

let add_content b content =
  let rec go prev_atom = function
    | [] -> ()
    | Value.N n :: rest ->
      copy_into b n;
      go false rest
    | Value.A a :: rest ->
      if prev_atom then X.Doc.Builder.text b " ";
      X.Doc.Builder.text b (Value.atom_to_string a);
      go true rest
  in
  go false content

(* A constructed node is parentless: the top node of its fresh document
   has its parent link cut (Node.parent, Node.root). *)
let cut_parent d =
  if X.Doc.n_nodes d > 1 then d.X.Doc.parent.(1) <- -1;
  d

let parentless store b = X.Store.add store (cut_parent (X.Doc.Builder.finish b))

let element store name (items : Value.t) =
  let attrs, content = split_content items in
  let b = X.Doc.Builder.create () in
  X.Doc.Builder.start_element b name attrs;
  add_content b content;
  X.Doc.Builder.end_element b;
  X.Node.of_tree (parentless store b) 1

(* A standalone constructed attribute lives on a synthetic wrapper element;
   its handle is the attribute node itself. *)
let attribute store name value_string =
  let b = X.Doc.Builder.create () in
  X.Doc.Builder.start_element b X.Node.attribute_wrapper
    [ (name, value_string) ];
  X.Doc.Builder.end_element b;
  X.Node.of_attr (parentless store b) 0

let text store s =
  let b = X.Doc.Builder.create () in
  X.Doc.Builder.text b s;
  X.Node.of_tree (parentless store b) 1

let document store (items : Value.t) =
  let attrs, content = split_content items in
  if attrs <> [] then
    raise (Env.Dynamic_error "document constructor cannot contain attributes");
  let b = X.Doc.Builder.create () in
  add_content b content;
  let doc = X.Store.add store (X.Doc.Builder.finish b) in
  X.Node.doc_node doc
