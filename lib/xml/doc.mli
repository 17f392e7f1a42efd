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
    is made from events (parsed, shredded from a message, projected,
    constructed; an update's structural edits re-emit the nodes they
    touch through it, see {!splice}). The pre-order arrays grow in place
    and the element stack is an int array of open pre indexes; attributes
    need no sort because they arrive grouped by owner in pre-order.
    Adjacent text is coalesced and empty text nodes are dropped, per the
    XDM. *)
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

(** {2 Updates as array edits}

    The XQUF update primitives on one document, addressed by the old
    version's pre index (tree nodes) or attribute index. *)

type position =
  | Before
  | After
  | Into  (** as the last children *)

type edit =
  | Insert of int * position * tree list
  | Delete of int
  | Replace_value of int * string
      (** text, comment or PI content; an element's children become one
          text node (none for [""]) *)
  | Rename of int * string  (** element or PI; ignored on other kinds *)
  | Delete_attr of int
  | Replace_attr_value of int * string
  | Rename_attr of int * string

val splice : t -> edit list -> t
(** The document after the edits, unregistered ([did = -1]), with the
    same uri. The old document's arrays are never written, so handles on
    it keep reading the old version.

    - A later rename or value of one target wins; inserted content
      accumulates in edit order. Edits of the document node other than an
      insert into it are ignored.
    - Application order (XQUF 1.0 §3.2.2): inserts apply before deletes,
      so content inserted before or after a deleted node stays; an
      element's content replacement applies after inserts, so content
      inserted into it or among its children is dropped.
    - Renames, attribute names and values, comment and PI values, text
      values other than [""], and the content of an element whose only
      child is one text node by a non-empty string are slot edits: each
      written array is copied once and every other array is the old one,
      physically. An attribute delete rewrites the five attribute arrays.
    - Any other edit is structural: untouched runs of sibling subtrees
      are blitted, the edited nodes and their ancestors are re-emitted,
      and text meeting at a splice merges (empty text drops), as the
      {!Builder} does. *)
