(** XQUF application (the paper's Section IX future work).

    Updating expressions accumulate a pending update list during
    evaluation; {!apply} makes a new version of each touched document by
    array edits ({!Xd_xml.Doc.splice}) and swaps it into its store under
    the same id and URI (snapshot semantics: results computed before
    application keep reading the old version). *)

val content_of_value : Value.t -> Xd_xml.Doc.tree list
(** Copy a value into insertable content trees (XQUF copies inserted
    nodes); adjacent atoms merge into one text node. *)

val apply_to_doc : Xd_xml.Doc.t -> Pul.pending list -> Xd_xml.Doc.t
(** The new version of one document under its primitives, in PUL order:
    {!Xd_xml.Doc.splice} over their pre and attribute indexes.
    @raise Env.Dynamic_error for an insert into an attribute. *)

val apply : Xd_xml.Store.t list -> Pul.pending list -> int
(** Apply a PUL, grouping by target document, and swap each new version
    into the store among [stores] that registered the document. Every
    document is edited, and its store found, before the first swap, so a
    failure leaves every store untouched. Returns the number of
    primitives applied. @raise Invalid_argument when a target document is
    registered in none of [stores]. *)

val apply_staged : Xd_xml.Store.t -> string list -> int
(** Commit a transaction's staged PULs (serialized {!Pul.to_xml} form, in
    staging order) atomically against [store]. Shared by live commit and
    crash-recovery replay. @raise Failure on a corrupt or stale PUL. *)
