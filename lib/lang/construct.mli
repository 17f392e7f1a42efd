(** Node construction (element/attribute/text/document constructors).

    Constructors deep-copy their node content into a fresh document of the
    evaluating store — fresh node identity, per XQuery semantics. Message
    shredding performs the same operation, which is exactly why
    pass-by-value behaves like construction and loses identity. *)

val copy_into : Xd_xml.Doc.Builder.b -> Xd_xml.Node.t -> unit
val split_content : Value.t -> (string * string) list * Value.t
val add_content : Xd_xml.Doc.Builder.b -> Value.t -> unit

val cut_parent : Xd_xml.Doc.t -> Xd_xml.Doc.t
(** Cut the parent link of the document's top node (node 1), as every
    constructor does: a constructed node is parentless. Message
    shredding cuts a by-value element copy the same way. *)

val element : Xd_xml.Store.t -> string -> Value.t -> Xd_xml.Node.t
val attribute : Xd_xml.Store.t -> string -> string -> Xd_xml.Node.t
(** A standalone attribute lives on a synthetic wrapper element. *)

val text : Xd_xml.Store.t -> string -> Xd_xml.Node.t
val document : Xd_xml.Store.t -> Value.t -> Xd_xml.Node.t
