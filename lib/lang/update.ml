(* XQUF subset (the paper's Section IX future work): pending update lists
   and their application.

   Updating expressions evaluate to the empty sequence and append to the
   dynamic context's pending update list (PUL); the PUL is applied when the
   query completes — snapshot semantics: the query result is computed
   against the pre-update state. Applying an update makes a new version of
   each target document by array edits that share what they leave alone
   ([Doc.splice]; a document's arrays are never written once built) and
   swaps it in under the same document id and URI, so subsequent queries
   see the new content while node handles held by the old result keep
   reading the untouched old version. *)

module X = Xd_xml
open Pul

(* Convert a value into copied content trees (XQUF copies inserted
   content); adjacent atoms merge into one text node. *)
let content_of_value (v : Value.t) : X.Doc.tree list =
  let rec tree_of_node n =
    match X.Node.kind n with
    | X.Node.Element ->
      X.Doc.E
        ( X.Node.name n,
          List.map
            (fun a -> (X.Node.name a, X.Node.string_value a))
            (X.Node.attributes n),
          List.map tree_of_node (X.Node.children n) )
    | X.Node.Text -> X.Doc.T (X.Node.string_value n)
    | X.Node.Comment -> X.Doc.C (X.Node.string_value n)
    | X.Node.Pi -> X.Doc.P (X.Node.name n, X.Node.string_value n)
    | X.Node.Document ->
      (* splice document content *)
      X.Doc.E ("#doc", [], List.map tree_of_node (X.Node.children n))
    | X.Node.Attribute ->
      Env.dynamic_error "cannot insert a bare attribute node"
  in
  let rec go prev_atom acc = function
    | [] -> List.rev acc
    | Value.N n :: rest -> (
      match tree_of_node n with
      | X.Doc.E ("#doc", _, kids) -> go false (List.rev_append kids acc) rest
      | t -> go false (t :: acc) rest)
    | Value.A a :: rest ->
      let s = Value.atom_to_string a in
      let acc =
        match acc with
        | X.Doc.T prev :: tl when prev_atom -> X.Doc.T (prev ^ " " ^ s) :: tl
        | _ -> X.Doc.T s :: acc
      in
      go true acc rest
  in
  go false [] v

(* ---- application ----------------------------------------------------- *)

(* One document's primitives as array edits ([Doc.splice]): a tree node
   is addressed by its pre index, an attribute by its attribute index. *)
let apply_to_doc (d : X.Doc.t) (edits : pending list) : X.Doc.t =
  X.Doc.splice d
    (List.map
       (fun p ->
         let n = target_of p in
         if X.Node.is_attribute n then
           let a = n.X.Node.attr in
           match p with
           | P_delete _ -> X.Doc.Delete_attr a
           | P_replace_value (_, s) -> X.Doc.Replace_attr_value (a, s)
           | P_rename (_, nm) -> X.Doc.Rename_attr (a, nm)
           | P_insert _ ->
             Env.dynamic_error "cannot insert into an attribute node"
         else
           let i = X.Node.index n in
           match p with
           | P_delete _ -> X.Doc.Delete i
           | P_insert (_, pos, content) ->
             let pos =
               match pos with
               | Ast.Before -> X.Doc.Before
               | Ast.After -> X.Doc.After
               | Ast.Into -> X.Doc.Into
             in
             X.Doc.Insert (i, pos, content)
           | P_replace_value (_, s) -> X.Doc.Replace_value (i, s)
           | P_rename (_, nm) -> X.Doc.Rename (i, nm))
       edits)

(* Apply a pending update list: group by target document, edit each, and
   swap every new version into the store that registered its document,
   under the same id and uri. Two phases — every edit (which may fail)
   completes, and every owner is found, before the first document is
   swapped in, so a failing PUL leaves the stores untouched and a
   staged-PUL commit is all-or-nothing locally. *)
let apply (stores : X.Store.t list) (pul : pending list) : int =
  let groups =
    List.fold_left
      (fun groups p ->
        let d = (target_of p).X.Node.doc in
        match List.assq_opt d groups with
        | Some edits ->
          edits := p :: !edits;
          groups
        | None -> (d, ref [ p ]) :: groups)
      [] pul
  in
  let edited =
    List.rev_map (fun (d, edits) -> (d, apply_to_doc d (List.rev !edits))) groups
  in
  let by_store =
    List.fold_left
      (fun by_store ((d, _) as pair) ->
        match List.find_opt (fun s -> X.Store.holds s d) stores with
        | None ->
          invalid_arg "Update.apply: document not registered in any given store"
        | Some s -> (
          match List.assq_opt s by_store with
          | Some pairs ->
            pairs := pair :: !pairs;
            by_store
          | None -> (s, ref [ pair ]) :: by_store))
      [] edited
  in
  List.iter
    (fun (s, pairs) -> X.Store.swap_all s (List.rev !pairs))
    (List.rev by_store);
  List.length pul

(* Commit a transaction's staged PULs (journal/wire form, in staging
   order): deserialize them all, then apply as one list — so commit and
   crash-recovery replay share one code path and one atomicity argument. *)
let apply_staged (store : X.Store.t) (staged : string list) : int =
  apply [ store ] (List.concat_map (fun s -> Pul.of_xml ~store s) staged)
