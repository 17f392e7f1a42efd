(** XML document storage.

    A document is an immutable array-based tree in pre-order (MonetDB-style
    pre/size/parent encoding) with a separate attribute table. Index 0 is
    always the document node. The pre/size encoding gives O(1) subtree
    extents, which the runtime projection algorithm exploits to skip
    subtrees. *)

type kind =
  | Document
  | Element
  | Text
  | Comment
  | Pi

val kind_to_string : kind -> string

type t = {
  mutable did : int;  (** global document id, assigned by {!Store.add} *)
  uri : string option;
  kind : kind array;
  name : string array;  (** element name / PI target *)
  value : string array;  (** text / comment / PI content *)
  parent : int array;  (** parent pre index, -1 for the document node *)
  size : int array;  (** number of tree descendants (attributes excluded) *)
  attr_owner : int array;
  attr_name : string array;
  attr_value : string array;
  attr_first : int array;  (** per tree node: first attribute index or -1 *)
  attr_count : int array;
}

val n_nodes : t -> int
(** Number of tree nodes (document, elements, text, comments, PIs). *)

val n_attrs : t -> int
val total_nodes : t -> int
val uri : t -> string option
val id : t -> int

exception Malformed of string

(** Imperative SAX-style document builder — the one way every document
    is made (parsed, shredded from a message, rebuilt by an update,
    projected, constructed). The pre-order arrays grow in place and the
    element stack is an int array of open pre indexes; attributes need no
    sort because they arrive grouped by owner in pre-order. Adjacent text
    is coalesced and empty text nodes are dropped, per the XDM. *)
module Builder : sig
  type b

  val create : ?uri:string -> unit -> b
  val start_element : b -> string -> (string * string) list -> unit

  val end_element : b -> unit
  (** @raise Malformed when no element is open. *)

  val text : b -> string -> unit
  val comment : b -> string -> unit
  val pi : b -> string -> string -> unit

  val current_index : b -> int
  (** Pre-order index of the innermost open node (the document node when
      no element is open). Lets a streaming consumer key side tables by
      the index an element will occupy in the finished document. *)

  val finish : b -> t
  (** Freeze into a document. The result has [did = -1] until registered
      with {!Store.add}. @raise Malformed when an element is still open. *)
end

(** Declarative tree description, convenient in tests and generators. *)
type tree =
  | E of string * (string * string) list * tree list
  | T of string
  | C of string
  | P of string * string

val of_forest : ?uri:string -> tree list -> t
(** One document holding the trees in order, under its document node. *)

val of_tree : ?uri:string -> tree -> t
(** [of_forest [t]]. *)
