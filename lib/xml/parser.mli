(** XML text parser.

    Handles elements, attributes, character data, CDATA, comments,
    processing instructions, predefined entities and numeric character
    references; skips the XML declaration and DOCTYPE. With
    [strip_ws = true] (the default) whitespace-only text nodes are dropped,
    matching how document stores load data-oriented XML. XRPC messages
    are read by [Xd_xrpc.Message.parse], on the same {!Event} core. *)

exception Error of string * int

val parse_doc : ?strip_ws:bool -> ?uri:string -> string -> Doc.t
(** Parse into an unregistered document ([did = -1]). Accepts a top-level
    forest. *)

val parse : ?strip_ws:bool -> store:Store.t -> ?uri:string -> string -> Doc.t
(** Parse and register in [store]. *)
