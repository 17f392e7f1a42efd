(** Compiled per-call-site message codecs, generated with the plan from
    {!Xd_shape.Shape} wire-shape descriptors (PROTOCOL.md, "Compiled
    codecs"): every call site's request writer, and a response decoder
    for each call site whose response is provably atomic.

    The writer is the one writer of [<request>] ({!Message.write_request});
    a call without a compiled one builds it when it is sent, with the
    same function, so the wire does not depend on the codec. The decoder
    is a strict specialization of the one message reader: it either
    accepts a response and agrees with {!Message.parse} on it, or returns
    [None] and the caller reads it generically (counted in
    [codec.bailouts]). *)

type t

val compile :
  passing:Message.passing ->
  caller:string ->
  Xd_shape.Shape.result ->
  Xd_lang.Ast.query ->
  t
(** Compile a request writer for every descriptor's call site and a
    decoder for every one that is {!Xd_shape.Shape.decoder_applicable}. *)

val descriptors : t -> Xd_shape.Shape.descriptor list
(** The descriptors codegen consumed — handed to the verifier, which
    re-derives them independently and rejects disagreement. *)

val find_writer : t -> int -> Message.request_writer option
(** By call-site key (the remote body's vertex id). *)

(** {2 Compiled response decoder} *)

type compiled_resp

val find_resp : t -> int -> compiled_resp option

val decode_response : compiled_resp -> string -> Xd_lang.Value.t option
(** Exact prefix/suffix match around a flat scan of [<atomic>] items.
    Accepts a strict subset of the language of the generic reader
    ({!Message.parse}) and agrees with it on every accepted string;
    faults, forwards and trace headers miss the prefix and return
    [None]. *)
