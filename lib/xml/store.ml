(* The document store: assigns global document ids (which define cross-
   document order) and resolves URIs. Every peer, and the query client,
   owns exactly one store; shipping a node to another peer necessarily
   means re-creating it in the remote store with a fresh identity. *)

type t = {
  mutable docs : Doc.t list; (* newest first *)
  by_uri : (string, Doc.t) Hashtbl.t;
  by_did : (int, Doc.t) Hashtbl.t;
}

(* Document ids are allocated from a global counter so that they are unique
   across stores: cross-store node sequences (as arise when a query mixes
   local and peer documents) then still have a well-defined, consistent
   document order. *)
let global_next = ref 0

let create () =
  { docs = []; by_uri = Hashtbl.create 16; by_did = Hashtbl.create 16 }

let register ~index_uri t doc =
  t.docs <- doc :: t.docs;
  Hashtbl.replace t.by_did doc.Doc.did doc;
  (match Doc.uri doc with
  | Some u when index_uri -> Hashtbl.replace t.by_uri u doc
  | Some _ | None -> ());
  doc

(* [index_uri:false] keeps the document's uri (fn:base-uri still works) but
   does not make it resolvable through fn:doc — shredded message copies
   must never shadow a peer's original documents. *)
let add ?(index_uri = true) t doc =
  if doc.Doc.did >= 0 then invalid_arg "Store.add: document already registered";
  doc.Doc.did <- !global_next;
  incr global_next;
  register ~index_uri t doc

(* Register with an explicit document id. Used by the XRPC shredder, which
   derives ids from origin keys so that document order among shredded
   fragments mirrors their order at the sending peer (the by-fragment
   ordering guarantee). Bumps the id past collisions. *)
let add_with_did t doc did =
  if doc.Doc.did >= 0 then
    invalid_arg "Store.add_with_did: document already registered";
  let rec free i = if Hashtbl.mem t.by_did i then free (i + 1) else i in
  let did = free did in
  doc.Doc.did <- did;
  register ~index_uri:false t doc

let find_did t did = Hashtbl.find_opt t.by_did did

let holds t doc =
  match Hashtbl.find_opt t.by_did doc.Doc.did with
  | Some d -> d == doc
  | None -> false

(* Replace a registered document with its new version (XQUF apply): the
   new document takes over the old one's id and uri bindings. Handles held
   on the old version keep working against its arrays, which the new
   version shares or copies but never writes. *)
let replace_doc t old_doc new_doc =
  if new_doc.Doc.did >= 0 then
    invalid_arg "Store.replace_doc: replacement already registered";
  new_doc.Doc.did <- old_doc.Doc.did;
  t.docs <- new_doc :: List.filter (fun d -> d != old_doc) t.docs;
  Hashtbl.replace t.by_did new_doc.Doc.did new_doc;
  (match Doc.uri new_doc with
  | Some u -> (
    match Hashtbl.find_opt t.by_uri u with
    | Some bound when bound == old_doc -> Hashtbl.replace t.by_uri u new_doc
    | Some _ | None -> ())
  | None -> ());
  new_doc

(* Atomic multi-document replace (staged-PUL commit): validate every pair
   before mutating anything, so a bad pair leaves the store untouched and
   a distributed commit never half-applies locally. *)
let swap_all t pairs =
  List.iter
    (fun (old_doc, new_doc) ->
      if new_doc.Doc.did >= 0 then
        invalid_arg "Store.swap_all: replacement already registered";
      if not (Hashtbl.mem t.by_did old_doc.Doc.did) then
        invalid_arg "Store.swap_all: old document not in this store")
    pairs;
  List.iter (fun (old_doc, new_doc) -> ignore (replace_doc t old_doc new_doc)) pairs

(* Rollback of a replace: put a previously-registered document back under
   its own id (and uri binding, if it had one). *)
let reinstate t doc =
  if doc.Doc.did < 0 then invalid_arg "Store.reinstate: never registered";
  t.docs <- doc :: List.filter (fun d -> d.Doc.did <> doc.Doc.did) t.docs;
  Hashtbl.replace t.by_did doc.Doc.did doc;
  match Doc.uri doc with
  | Some u -> (
    match Hashtbl.find_opt t.by_uri u with
    | Some bound when bound.Doc.did = doc.Doc.did -> Hashtbl.replace t.by_uri u doc
    | Some _ | None -> ())
  | None -> ()

let find_uri t u = Hashtbl.find_opt t.by_uri u
let documents t = List.rev t.docs
let count t = List.length t.docs

let total_bytes_estimate t =
  (* rough retained-size proxy: node counts *)
  List.fold_left (fun acc d -> acc + Doc.total_nodes d) 0 t.docs

let of_tree t ?uri tree = add t (Doc.of_tree ?uri tree)
let of_forest t ?uri trees = add t (Doc.of_forest ?uri trees)
