(* Node handles and the XPath axes.

   A node is (document, tree index) or (document, attribute index). Global
   document order: documents are ordered by their store id; within a
   document tree nodes are in pre-order, and an element's attributes come
   after the element itself but before its first child. *)

type t = {
  doc : Doc.t;
  idx : int; (* tree node pre index; for attributes: owner's pre index *)
  attr : int; (* -1 for tree nodes, else index into the attribute table *)
}

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Pi

let kind_to_string = function
  | Document -> "document-node"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"

let of_tree doc idx = { doc; idx; attr = -1 }
let of_attr doc ai = { doc; idx = doc.Doc.attr_owner.(ai); attr = ai }
let doc_node doc = of_tree doc 0
let doc n = n.doc
let index n = n.idx
let is_attribute n = n.attr >= 0

let kind n =
  if n.attr >= 0 then Attribute
  else
    match n.doc.Doc.kind.(n.idx) with
    | Doc.Document -> Document
    | Doc.Element -> Element
    | Doc.Text -> Text
    | Doc.Comment -> Comment
    | Doc.Pi -> Pi

let name n =
  if n.attr >= 0 then n.doc.Doc.attr_name.(n.attr) else n.doc.Doc.name.(n.idx)

(* Document order compares (did, pre, attr) field by field. A tree node
   has attr = -1, so it sorts before its own attributes, and those sort
   before the element's first child (pre + 1). *)
let compare_order a b =
  let c = Int.compare a.doc.Doc.did b.doc.Doc.did in
  if c <> 0 then c
  else
    let c = Int.compare a.idx b.idx in
    if c <> 0 then c else Int.compare a.attr b.attr

let same a b = a.doc.Doc.did = b.doc.Doc.did && a.idx = b.idx && a.attr = b.attr

let string_value n =
  if n.attr >= 0 then n.doc.Doc.attr_value.(n.attr)
  else
    match n.doc.Doc.kind.(n.idx) with
    | Doc.Text | Doc.Comment | Doc.Pi -> n.doc.Doc.value.(n.idx)
    | Doc.Element | Doc.Document ->
      let buf = Buffer.create 32 in
      let last = n.idx + n.doc.Doc.size.(n.idx) in
      for i = n.idx to last do
        if n.doc.Doc.kind.(i) = Doc.Text then
          Buffer.add_string buf n.doc.Doc.value.(i)
      done;
      Buffer.contents buf

let document_uri n = Doc.uri n.doc

(* --- structural predicates ------------------------------------------- *)

let is_tree_descendant_or_self ~anc:a ~desc:d =
  a.doc.Doc.did = d.doc.Doc.did
  && d.idx >= a.idx
  && d.idx <= a.idx + a.doc.Doc.size.(a.idx)

(* [contains a d]: d is a (or an attribute of a) descendant-or-self of a. *)
let contains a d =
  if a.attr >= 0 then same a d else is_tree_descendant_or_self ~anc:a ~desc:d

(* --- axes -------------------------------------------------------------
   All axes return nodes in document order (path-step semantics). *)

let parent n =
  if n.attr >= 0 then Some (of_tree n.doc n.idx)
  else
    let p = n.doc.Doc.parent.(n.idx) in
    if p < 0 then None else Some (of_tree n.doc p)

(* The forward axes are right folds over the pre/size/attribute arrays, so
   a path step can filter inside the walk. Each walks its axis from the
   last node back to the first, so consing builds a list in document order
   in one pass; inlined into the list wrappers below, they cost no closure
   call per node. *)

let[@inline] fold_attributes f n acc =
  if n.attr >= 0 then acc
  else begin
    let d = n.doc in
    let first = d.Doc.attr_first.(n.idx) in
    let acc = ref acc in
    if first >= 0 then
      for ai = first + d.Doc.attr_count.(n.idx) - 1 downto first do
        acc := f { doc = d; idx = n.idx; attr = ai } !acc
      done;
    !acc
  end

(* The node just before a child of p in pre-order is p itself or the last
   node of the previous child's subtree; climbing parents from it finds
   that previous child. *)
let[@inline] fold_children f n acc =
  if n.attr >= 0 then acc
  else begin
    let d = n.doc and p = n.idx in
    let acc = ref acc and c = ref (p + d.Doc.size.(p)) in
    while !c > p do
      while d.Doc.parent.(!c) <> p do
        c := d.Doc.parent.(!c)
      done;
      acc := f (of_tree d !c) !acc;
      c := !c - 1
    done;
    !acc
  end

let[@inline] fold_tree_range d first last f acc =
  let acc = ref acc in
  for i = last downto first do
    acc := f (of_tree d i) !acc
  done;
  !acc

let[@inline] fold_descendants f n acc =
  if n.attr >= 0 then acc
  else fold_tree_range n.doc (n.idx + 1) (n.idx + n.doc.Doc.size.(n.idx)) f acc

let[@inline] fold_descendant_or_self f n acc =
  if n.attr >= 0 then f n acc
  else fold_tree_range n.doc n.idx (n.idx + n.doc.Doc.size.(n.idx)) f acc

let cons m acc = m :: acc
let attributes n = fold_attributes cons n []
let children n = fold_children cons n []
let descendants n = fold_descendants cons n []
let descendant_or_self n = fold_descendant_or_self cons n []

let ancestors n =
  let rec up acc cur =
    match parent cur with
    | None -> acc (* document order: outermost first *)
    | Some p -> up (p :: acc) p
  in
  up [] n

let ancestor_or_self n = ancestors n @ [ n ]

let following_sibling n =
  if n.attr >= 0 then []
  else
    match parent n with
    | None -> []
    | Some p -> List.filter (fun c -> c.idx > n.idx) (children p)

let preceding_sibling n =
  if n.attr >= 0 then []
  else
    match parent n with
    | None -> []
    | Some p -> List.filter (fun c -> c.idx < n.idx) (children p)

(* following: nodes strictly after the subtree of n, excluding ancestors
   (ancestors all have smaller pre, so the pre > n.idx + size test suffices).
   For attribute nodes we use their owner element, per common practice. *)
let following n =
  let base = if n.attr >= 0 then of_tree n.doc n.idx else n in
  let d = base.doc in
  let start = base.idx + d.Doc.size.(base.idx) + 1 in
  let total = Doc.n_nodes d in
  List.init (max 0 (total - start)) (fun i -> of_tree d (start + i))

(* preceding: nodes before n in document order, excluding ancestors. *)
let preceding n =
  let base = if n.attr >= 0 then of_tree n.doc n.idx else n in
  let d = base.doc in
  let ancs = List.map (fun a -> a.idx) (ancestors base) in
  let rec loop i acc =
    if i >= base.idx then List.rev acc
    else
      let acc = if List.mem i ancs then acc else of_tree d i :: acc in
      loop (i + 1) acc
  in
  loop 0 []

let root n = of_tree n.doc 0

let pp fmt n =
  match kind n with
  | Document -> Fmt.pf fmt "document(%s)" (Option.value ~default:"?" (Doc.uri n.doc))
  | Element -> Fmt.pf fmt "<%s>@%d.%d" (name n) n.doc.Doc.did n.idx
  | Attribute -> Fmt.pf fmt "@%s=%S" (name n) (string_value n)
  | Text -> Fmt.pf fmt "text(%S)" (string_value n)
  | Comment -> Fmt.pf fmt "comment(%S)" (string_value n)
  | Pi -> Fmt.pf fmt "pi(%s)" (name n)
