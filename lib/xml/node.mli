(** Node handles and XPath axes.

    A node identifies a tree node or an attribute within a stored document.
    Node identity and global document order are derived from the (document
    id, pre index, attribute index) triple, so they survive any amount of
    navigation — but not copying into another document, which is exactly the
    property the paper's message-passing semantics must work around. *)

type t = { doc : Doc.t; idx : int; attr : int }

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Pi

val kind_to_string : kind -> string

val of_tree : Doc.t -> int -> t
val of_attr : Doc.t -> int -> t
val doc_node : Doc.t -> t
val doc : t -> Doc.t
val index : t -> int
val is_attribute : t -> bool
val kind : t -> kind
val name : t -> string

val compare_order : t -> t -> int
(** Global document order: document id, then pre index, then attribute
    index (a tree node sorts before its own attributes). *)

val same : t -> t -> bool
(** Node identity ([is] in XQuery). *)

val string_value : t -> string
val document_uri : t -> string option

val contains : t -> t -> bool
(** [contains a d] — [d] is [a] or a descendant (or attribute of a
    descendant-or-self) of [a]. *)

(** {2 Axes} — all results in document order. *)

(** The forward axes as right folds over the document arrays:
    [fold_children f n init] is [List.fold_right f (children n) init]
    without building the list. Each walks from the axis's last node back
    to its first, in constant stack. *)

val fold_children : (t -> 'a -> 'a) -> t -> 'a -> 'a
val fold_descendants : (t -> 'a -> 'a) -> t -> 'a -> 'a
val fold_descendant_or_self : (t -> 'a -> 'a) -> t -> 'a -> 'a
val fold_attributes : (t -> 'a -> 'a) -> t -> 'a -> 'a

val parent : t -> t option
val attributes : t -> t list
val children : t -> t list
val descendants : t -> t list
val descendant_or_self : t -> t list
val ancestors : t -> t list
val ancestor_or_self : t -> t list
val following_sibling : t -> t list
val preceding_sibling : t -> t list
val following : t -> t list
val preceding : t -> t list
val root : t -> t

val pp : Format.formatter -> t -> unit
