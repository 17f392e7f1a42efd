(** A peer: a named XQuery engine owning a document store. Peers host the
    documents addressed as [xrpc://<name>/<doc>] and execute the function
    bodies shipped to them. *)

type t

val create : string -> t
val name : t -> string
val store : t -> Xd_xml.Store.t
val load_xml : t -> doc_name:string -> string -> Xd_xml.Doc.t
val load_tree : t -> doc_name:string -> Xd_xml.Doc.tree -> Xd_xml.Doc.t
val find_doc : t -> string -> Xd_xml.Doc.t option
