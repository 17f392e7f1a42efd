(** Static wire-shape inference over a decomposed plan.

    Per execute-at call site, infers a {!descriptor}: its target and the
    wire shape of its response, joined from the {!Xd_types.Stype}
    lattice (with the function fixpoint inherited from
    {!Xd_types.Infer}). A response shape is either provably atomic — the
    value crosses the wire as a run of [<atomic>] elements with a
    constant [<fragments></fragments>] section under every passing
    strategy — or ⊤ ("dynamic"), the safe escape hatch that keeps the
    generic reader.

    Descriptors drive [Xd_xrpc.Codec], which compiles every call site's
    request writer and the decoders of atomic responses; the verifier
    re-derives them with an independent run of {!analyze} and rejects
    disagreements. *)

type resp_shape = R_atomic of Xd_types.Stype.t | R_dynamic

type descriptor = {
  vertex : int;  (** the remote body's vertex id (the call-site key) *)
  exec : int;  (** the execute-at vertex itself *)
  host : string option;  (** literal target host; [None] = computed *)
  resp : resp_shape;
}

type result = {
  descriptors : descriptor list;  (** in plan traversal order *)
  by_vertex : (int, descriptor) Hashtbl.t;
}

val analyze : Xd_lang.Ast.query -> result

val resp_shape_equal : resp_shape -> resp_shape -> bool
val descriptor_equal : descriptor -> descriptor -> bool

val decoder_applicable : descriptor -> bool
(** Atomic response: a specialized response decoder applies. *)

val resp_shape_to_string : resp_shape -> string

val pp_dump : Format.formatter -> result -> unit
(** The [--shapes] dump: the fixed envelope layout, then every call
    site with its response shape and codec disposition. *)
