(** Document store.

    Assigns global document ids (defining cross-document order) and resolves
    URIs to loaded documents. Each peer owns one store. *)

type t

val create : unit -> t

val add : ?index_uri:bool -> t -> Doc.t -> Doc.t
(** Register a freshly built document, assigning its id. Returns the same
    document for convenience. With [index_uri:false] the document keeps its
    uri (for fn:base-uri) but is not resolvable through the store — used
    for shredded message copies, which must never shadow original
    documents. @raise Invalid_argument if already registered. *)

val add_with_did : t -> Doc.t -> int -> Doc.t
(** Register with an explicit document id (bumped past collisions). The
    XRPC shredder derives ids from origin keys so that document order among
    shredded fragments mirrors the sending peer's order. *)

val find_uri : t -> string -> Doc.t option
val find_did : t -> int -> Doc.t option

val holds : t -> Doc.t -> bool
(** The document is registered here and is the current version of its
    id (physically), not an older version an update replaced. *)

val replace_doc : t -> Doc.t -> Doc.t -> Doc.t
(** [replace_doc t old new] — the new version takes over the old one's
    id and uri bindings (XQUF application). Handles on the old version
    keep reading its arrays, which the new version shares or copies but
    never writes ({!Doc.splice}). *)

val swap_all : t -> (Doc.t * Doc.t) list -> unit
(** Replace several documents at once (staged-PUL commit): every pair is
    validated before any mutation, so a failure leaves the store
    untouched. @raise Invalid_argument without having mutated anything. *)

val reinstate : t -> Doc.t -> unit
(** Rollback of a {!replace_doc}: re-bind a previously-registered document
    under its own id and uri. *)

val documents : t -> Doc.t list
val count : t -> int

val total_bytes_estimate : t -> int
(** Total node count across all documents (a cheap retained-size proxy). *)

val of_tree : t -> ?uri:string -> Doc.tree -> Doc.t
val of_forest : t -> ?uri:string -> Doc.tree list -> Doc.t
